#include "spchol/gpu/blas.hpp"

#include <cstring>

#include "spchol/dense/kernels.hpp"
#include "spchol/support/worker_crew.hpp"

namespace spchol::gpu {

namespace {

/// Device kernels fork on the crew of the run that issued them, at its
/// full width: idle workers pick up the bands, the issuer runs the rest.
/// Without a crew they run on the issuing thread.
struct Fork {
  WorkerCrew& crew;
  std::size_t width;
};
Fork fork_of(Device& dev) {
  static WorkerCrew none(0);
  WorkerCrew* crew = dev.crew();
  return crew != nullptr ? Fork{*crew, crew->size() + 1} : Fork{none, 1};
}

void account_kernel(Device& dev, Stream s, double flops) {
  dev.record(s, OpKind::kKernel, dev.model().gpu_kernel_seconds(flops));
}

}  // namespace

void potrf_lower(Device& dev, Stream s, index_t n, DeviceBuffer& buf,
                 std::size_t off, index_t lda) {
  const Fork f = fork_of(dev);
  dense::potrf_lower_parallel(f.crew, f.width, n, buf.data() + off, lda);
  account_kernel(dev, s, dense::flops_potrf(n));
}

void trsm_right_lower_trans(Device& dev, Stream s, index_t m, index_t n,
                            DeviceBuffer& buf, std::size_t l_off, index_t ldl,
                            std::size_t b_off, index_t ldb) {
  const Fork f = fork_of(dev);
  dense::trsm_right_lower_trans_parallel(f.crew, f.width, m, n,
                                         buf.data() + l_off, ldl,
                                         buf.data() + b_off, ldb);
  account_kernel(dev, s, dense::flops_trsm(m, n));
}

void syrk_lower_nt(Device& dev, Stream s, index_t n, index_t k,
                   const DeviceBuffer& abuf, std::size_t a_off, index_t lda,
                   DeviceBuffer& cbuf, std::size_t c_off, index_t ldc) {
  const Fork f = fork_of(dev);
  dense::syrk_lower_nt_parallel(f.crew, f.width, n, k, abuf.data() + a_off,
                                lda, cbuf.data() + c_off, ldc);
  account_kernel(dev, s, dense::flops_syrk(n, k));
}

void gemm_nt_minus(Device& dev, Stream s, index_t m, index_t n, index_t k,
                   const DeviceBuffer& abuf, std::size_t a_off, index_t lda,
                   std::size_t b_off, index_t ldb, DeviceBuffer& cbuf,
                   std::size_t c_off, index_t ldc) {
  const Fork f = fork_of(dev);
  dense::gemm_nt_minus_parallel(f.crew, f.width, m, n, k, abuf.data() + a_off,
                                lda, abuf.data() + b_off, ldb,
                                cbuf.data() + c_off, ldc);
  account_kernel(dev, s, dense::flops_gemm(m, n, k));
}

namespace {

void zero_region(DeviceBuffer& buf, std::size_t off, index_t rows,
                 index_t cols, index_t ld) {
  if (rows == ld) {
    std::memset(buf.data() + off, 0,
                static_cast<std::size_t>(rows) * cols * sizeof(double));
    return;
  }
  for (index_t c = 0; c < cols; ++c) {
    std::memset(buf.data() + off + static_cast<std::size_t>(c) * ld, 0,
                static_cast<std::size_t>(rows) * sizeof(double));
  }
}

}  // namespace

void syrk_lower_nt_beta0(Device& dev, Stream s, index_t n, index_t k,
                         const DeviceBuffer& abuf, std::size_t a_off,
                         index_t lda, DeviceBuffer& cbuf, std::size_t c_off,
                         index_t ldc) {
  const Fork f = fork_of(dev);
  zero_region(cbuf, c_off, n, n, ldc);
  dense::syrk_lower_nt_parallel(f.crew, f.width, n, k, abuf.data() + a_off,
                                lda, cbuf.data() + c_off, ldc);
  account_kernel(dev, s, dense::flops_syrk(n, k));
}

void gemm_nt_minus_beta0(Device& dev, Stream s, index_t m, index_t n,
                         index_t k, const DeviceBuffer& abuf,
                         std::size_t a_off, index_t lda, std::size_t b_off,
                         index_t ldb, DeviceBuffer& cbuf, std::size_t c_off,
                         index_t ldc) {
  const Fork f = fork_of(dev);
  zero_region(cbuf, c_off, m, n, ldc);
  dense::gemm_nt_minus_parallel(f.crew, f.width, m, n, k, abuf.data() + a_off,
                                lda, abuf.data() + b_off, ldb,
                                cbuf.data() + c_off, ldc);
  account_kernel(dev, s, dense::flops_gemm(m, n, k));
}

void batched_panel_factor(Device& dev, Stream s,
                          std::span<const BatchedPanel> panels,
                          DeviceBuffer& buf) {
  const Fork f = fork_of(dev);
  double flops = 0.0;
  for (const BatchedPanel& p : panels) {
    try {
      dense::potrf_lower_parallel(f.crew, f.width, p.w,
                                  buf.data() + p.panel_off, p.r);
    } catch (const NotPositiveDefinite& e) {
      throw NotPositiveDefinite(p.first_col + e.column());
    }
    flops += dense::flops_potrf(p.w);
    if (p.r > p.w) {
      dense::trsm_right_lower_trans_parallel(
          f.crew, f.width, p.r - p.w, p.w, buf.data() + p.panel_off, p.r,
          buf.data() + p.panel_off + p.w, p.r);
      flops += dense::flops_trsm(p.r - p.w, p.w);
    }
  }
  dev.record(s, OpKind::kKernel,
             dev.model().gpu_batched_kernel_seconds(flops, panels.size()));
}

void batched_syrk_update(Device& dev, Stream s,
                         std::span<const BatchedPanel> panels,
                         const DeviceBuffer& pbuf, DeviceBuffer& ubuf) {
  const Fork f = fork_of(dev);
  double flops = 0.0;
  std::size_t members = 0;
  for (const BatchedPanel& p : panels) {
    const index_t below = p.r - p.w;
    if (below == 0) continue;
    zero_region(ubuf, p.update_off, below, below, below);
    dense::syrk_lower_nt_parallel(f.crew, f.width, below, p.w,
                                  pbuf.data() + p.panel_off + p.w, p.r,
                                  ubuf.data() + p.update_off, below);
    flops += dense::flops_syrk(below, p.w);
    members++;
  }
  dev.record(s, OpKind::kKernel,
             dev.model().gpu_batched_kernel_seconds(flops, members));
}

namespace {

void account_solve_kernel(Device& dev, Stream s, double flops) {
  dev.record(s, OpKind::kKernel, dev.model().gpu_solve_kernel_seconds(flops));
}

/// One solve node's kernel flops: the in-panel TRSM plus the update of the
/// r − w rows below.
double solve_flops(index_t w, index_t r, index_t nrhs) {
  return dense::flops_trsm(nrhs, w) + dense::flops_gemm(r - w, nrhs, w);
}

}  // namespace

void trsm_left_lower(Device& dev, Stream s, index_t w, index_t r,
                     index_t nrhs, const DeviceBuffer& lbuf,
                     std::size_t l_off, index_t ldl, DeviceBuffer& bbuf,
                     std::size_t b_off, index_t ldb) {
  dense::trsm_left_lower(w, 0, r, nrhs, lbuf.data() + l_off, ldl,
                         bbuf.data() + b_off, ldb);
  account_solve_kernel(dev, s, solve_flops(w, r, nrhs));
}

void trsm_left_lower_trans(Device& dev, Stream s, index_t w, index_t r,
                           index_t nrhs, const DeviceBuffer& lbuf,
                           std::size_t l_off, index_t ldl,
                           DeviceBuffer& bbuf, std::size_t b_off,
                           index_t ldb) {
  dense::trsm_left_lower_trans(w, r, nrhs, lbuf.data() + l_off, ldl,
                               bbuf.data() + b_off, ldb);
  account_solve_kernel(dev, s, solve_flops(w, r, nrhs));
}

void gather_rows_h2d(Device& dev, Stream s, std::span<const index_t> rows,
                     const double* y, offset_t ld_y, index_t ncols,
                     DeviceBuffer& dst, std::size_t off) {
  const std::size_t nr = rows.size();
  SPCHOL_CHECK(off + nr * static_cast<std::size_t>(ncols) <= dst.size(),
               "gather_rows_h2d out of range");
  for (index_t q = 0; q < ncols; ++q) {
    double* col = dst.data() + off + static_cast<std::size_t>(q) * nr;
    const double* yq = y + static_cast<offset_t>(q) * ld_y;
    for (std::size_t i = 0; i < nr; ++i) col[i] = yq[rows[i]];
  }
  const std::size_t bytes =
      nr * static_cast<std::size_t>(ncols) * sizeof(double);
  dev.record(s, OpKind::kH2D,
             dev.model().h2d_seconds(static_cast<double>(bytes)), bytes);
}

void scatter_rows_d2h(Device& dev, Stream s, std::span<const index_t> rows,
                      index_t ld, double* y, offset_t ld_y, index_t ncols,
                      const DeviceBuffer& src, std::size_t off) {
  const std::size_t nr = rows.size();
  SPCHOL_CHECK(nr <= static_cast<std::size_t>(ld), "scatter rows exceed ld");
  SPCHOL_CHECK(off + static_cast<std::size_t>(ld) * ncols <= src.size(),
               "scatter_rows_d2h out of range");
  for (index_t q = 0; q < ncols; ++q) {
    const double* col = src.data() + off + static_cast<std::size_t>(q) * ld;
    double* yq = y + static_cast<offset_t>(q) * ld_y;
    for (std::size_t i = 0; i < nr; ++i) yq[rows[i]] = col[i];
  }
  const std::size_t bytes =
      nr * static_cast<std::size_t>(ncols) * sizeof(double);
  dev.record(s, OpKind::kD2H,
             dev.model().d2h_seconds(static_cast<double>(bytes)), bytes);
}

void zero_fill(Device& dev, Stream s, DeviceBuffer& buf, std::size_t off,
               std::size_t count) {
  SPCHOL_CHECK(off + count <= buf.size(), "zero_fill out of range");
  std::memset(buf.data() + off, 0, count * sizeof(double));
  // Bandwidth-bound: model at ~1 TB/s device memory write bandwidth.
  dev.record(s, OpKind::kKernel,
             dev.model().gpu_kernel_launch +
                 static_cast<double>(count * sizeof(double)) / 1.0e12);
}

}  // namespace spchol::gpu
