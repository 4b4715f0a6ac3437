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
