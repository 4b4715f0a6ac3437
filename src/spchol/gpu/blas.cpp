#include "spchol/gpu/blas.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "spchol/dense/kernels.hpp"

namespace spchol::gpu {

namespace {

void account_kernel(Device& dev, Stream s, double flops) {
  dev.record(s, OpKind::kKernel, dev.model().gpu_kernel_seconds(flops));
}

}  // namespace

void potrf_lower(Device& dev, Stream s, index_t n, DeviceBuffer& buf,
                 std::size_t off, index_t lda) {
  dense::potrf_lower_parallel(dev.compute_pool(), dev.compute_threads(), n,
                              buf.data() + off, lda);
  account_kernel(dev, s, dense::flops_potrf(n));
}

void trsm_right_lower_trans(Device& dev, Stream s, index_t m, index_t n,
                            DeviceBuffer& buf, std::size_t l_off, index_t ldl,
                            std::size_t b_off, index_t ldb) {
  dense::trsm_right_lower_trans_parallel(
      dev.compute_pool(), dev.compute_threads(), m, n, buf.data() + l_off,
      ldl, buf.data() + b_off, ldb);
  account_kernel(dev, s, dense::flops_trsm(m, n));
}

void syrk_lower_nt(Device& dev, Stream s, index_t n, index_t k,
                   const DeviceBuffer& abuf, std::size_t a_off, index_t lda,
                   DeviceBuffer& cbuf, std::size_t c_off, index_t ldc) {
  dense::syrk_lower_nt_parallel(dev.compute_pool(), dev.compute_threads(), n,
                                k, abuf.data() + a_off, lda,
                                cbuf.data() + c_off, ldc);
  account_kernel(dev, s, dense::flops_syrk(n, k));
}

void gemm_nt_minus(Device& dev, Stream s, index_t m, index_t n, index_t k,
                   const DeviceBuffer& abuf, std::size_t a_off, index_t lda,
                   std::size_t b_off, index_t ldb, DeviceBuffer& cbuf,
                   std::size_t c_off, index_t ldc) {
  dense::gemm_nt_minus_parallel(dev.compute_pool(), dev.compute_threads(), m,
                                n, k, abuf.data() + a_off, lda,
                                abuf.data() + b_off, ldb,
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
  zero_region(cbuf, c_off, n, n, ldc);
  dense::syrk_lower_nt_parallel(dev.compute_pool(), dev.compute_threads(), n,
                                k, abuf.data() + a_off, lda,
                                cbuf.data() + c_off, ldc);
  account_kernel(dev, s, dense::flops_syrk(n, k));
}

void gemm_nt_minus_beta0(Device& dev, Stream s, index_t m, index_t n,
                         index_t k, const DeviceBuffer& abuf,
                         std::size_t a_off, index_t lda, std::size_t b_off,
                         index_t ldb, DeviceBuffer& cbuf, std::size_t c_off,
                         index_t ldc) {
  zero_region(cbuf, c_off, m, n, ldc);
  dense::gemm_nt_minus_parallel(dev.compute_pool(), dev.compute_threads(), m,
                                n, k, abuf.data() + a_off, lda,
                                abuf.data() + b_off, ldb,
                                cbuf.data() + c_off, ldc);
  account_kernel(dev, s, dense::flops_gemm(m, n, k));
}

void batched_panel_factor(Device& dev, Stream s,
                          std::span<const BatchedPanel> panels,
                          DeviceBuffer& buf) {
  double flops = 0.0;
  for (const BatchedPanel& p : panels) {
    try {
      dense::potrf_lower_parallel(dev.compute_pool(), dev.compute_threads(),
                                  p.w, buf.data() + p.panel_off, p.r);
    } catch (const NotPositiveDefinite& e) {
      throw NotPositiveDefinite(p.first_col + e.column());
    }
    flops += dense::flops_potrf(p.w);
    if (p.r > p.w) {
      dense::trsm_right_lower_trans_parallel(
          dev.compute_pool(), dev.compute_threads(), p.r - p.w, p.w,
          buf.data() + p.panel_off, p.r,
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
  double flops = 0.0;
  std::size_t members = 0;
  for (const BatchedPanel& p : panels) {
    const index_t below = p.r - p.w;
    if (below == 0) continue;
    zero_region(ubuf, p.update_off, below, below, below);
    dense::syrk_lower_nt_parallel(dev.compute_pool(), dev.compute_threads(),
                                  below, p.w, pbuf.data() + p.panel_off + p.w,
                                  p.r, ubuf.data() + p.update_off, below);
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

// --- cooperative multi-device kernels -------------------------------------

namespace {

/// The `role` stream of peer `p` on the owner's record.
Stream peer_stream(Stream s, const CoopPeer& p, Role role) {
  return Stream{s.rec, p.ordinal, role};
}

/// All-to-all fence between the owner's and every peer's compute stream:
/// one barrier entry (the cudaStreamWaitEvent mesh between cooperative
/// phases).
void coop_barrier(Stream s) {
  if (s.rec != nullptr) s.rec->push_back({OpKind::kBarrier});
}

/// Max link latency across the cooperative mesh (owner = ordinal 0 plus
/// every peer): the lockstep rounds of a cooperative phase are paced by
/// the slowest exchange in the mesh. Falls back to the flat p2p latency
/// when no topology table is set.
double coop_round_latency(const Device& dev, std::span<const CoopPeer> peers) {
  const PerfModel& m = dev.model();
  if (m.links.empty()) return m.p2p_latency;
  double lat = 0.0;
  auto consider = [&](int a, int b) {
    if (a != b) lat = std::max(lat, m.p2p_seconds(a, b, 0.0));
  };
  for (const CoopPeer& p : peers) {
    consider(0, p.ordinal);
    for (const CoopPeer& q : peers) consider(p.ordinal, q.ordinal);
  }
  return lat > 0.0 ? lat : m.p2p_latency;
}

/// One cooperative compute phase: the same modeled duration lands on the
/// owner stream and every peer's compute stream (the devices work in
/// lockstep on their row-block shares). Only the owner pays the launch
/// issue overhead — one host thread drives the whole cooperative launch.
void coop_phase(Device& dev, Stream s, std::span<const CoopPeer> peers,
                double dur) {
  dev.record(s, OpKind::kKernel, dur);
  for (const CoopPeer& p : peers) {
    p.dev->record(peer_stream(s, p, Role::kCompute), OpKind::kKernel, dur, 0,
                  /*issue=*/false);
  }
}

/// Each peer downloads its `slice_bytes` on its copy stream once its
/// compute share is done; returns the slices' op indices.
std::vector<int> coop_peer_slices_d2h(Stream s,
                                      std::span<const CoopPeer> peers,
                                      std::size_t slice_bytes) {
  std::vector<int> ops;
  for (const CoopPeer& p : peers) {
    const Stream compute = peer_stream(s, p, Role::kCompute);
    ops.push_back(p.dev->record(
        peer_stream(s, p, Role::kCopy).waiting_for(compute.last()),
        OpKind::kD2H,
        p.dev->model().d2h_seconds(static_cast<double>(slice_bytes)),
        slice_bytes, /*issue=*/false));
  }
  return ops;
}

}  // namespace

void coop_copy_h2d(Device& dev, Stream s, std::span<const CoopPeer> peers,
                   DeviceBuffer& dst, std::size_t off, const double* src,
                   std::size_t count) {
  SPCHOL_CHECK(off + count <= dst.size(), "coop_copy_h2d out of range");
  std::memcpy(dst.data() + off, src, count * sizeof(double));

  const double num_devices = static_cast<double>(peers.size() + 1);
  const std::size_t slice_bytes = static_cast<std::size_t>(
      static_cast<double>(count) * sizeof(double) / num_devices);
  dev.record(s, OpKind::kH2D,
             dev.model().h2d_seconds(static_cast<double>(slice_bytes)),
             slice_bytes);
  for (const CoopPeer& p : peers) {
    p.dev->record(peer_stream(s, p, Role::kCompute), OpKind::kH2D,
                  p.dev->model().h2d_seconds(static_cast<double>(slice_bytes)),
                  slice_bytes, /*issue=*/false);
  }
  // All-gather the (P-1)/P of the block each device is missing over the
  // p2p mesh, then fence: the factor's first round needs the full panel
  // resident everywhere.
  const double gather_bytes = static_cast<double>(slice_bytes) *
                              static_cast<double>(peers.size());
  if (!peers.empty()) {
    // Per-link all-gather: device i receives one 1/P slice from every
    // other participant. The issue latencies pipeline (one, the slowest
    // ingress link) while the slice payloads serialize on i's ingress
    // path at each link's own bandwidth — so a uniform table prices
    // exactly like the flat model, and an island-crossing hop paces the
    // whole fence, which is what placement minimizes.
    auto gather_for = [&](const PerfModel& m, int me) {
      if (m.links.empty()) return m.p2p_seconds(gather_bytes);
      double lat = 0.0;
      double xfer = 0.0;
      auto add = [&](int from) {
        const double hop_lat = m.p2p_seconds(from, me, 0.0);
        lat = std::max(lat, hop_lat);
        xfer += m.p2p_seconds(from, me, static_cast<double>(slice_bytes)) -
                hop_lat;
      };
      if (me != 0) add(0);
      for (const CoopPeer& q : peers) {
        if (q.ordinal != me) add(q.ordinal);
      }
      return lat + xfer;
    };
    dev.record(s, OpKind::kP2P, gather_for(dev.model(), 0), 0,
               /*issue=*/false);
    for (const CoopPeer& p : peers) {
      p.dev->record(peer_stream(s, p, Role::kCompute), OpKind::kP2P,
                    gather_for(p.dev->model(), p.ordinal), 0,
                    /*issue=*/false);
    }
  }
  coop_barrier(s);
}

void coop_copy_d2h(Device& dev, Stream s, std::span<const CoopPeer> peers,
                   double* dst, const DeviceBuffer& src, std::size_t off,
                   std::size_t count) {
  SPCHOL_CHECK(off + count <= src.size(), "coop_copy_d2h out of range");
  std::memcpy(dst, src.data() + off, count * sizeof(double));

  const double num_devices = static_cast<double>(peers.size() + 1);
  const std::size_t slice_bytes = static_cast<std::size_t>(
      static_cast<double>(count) * sizeof(double) / num_devices);
  dev.record(s, OpKind::kD2H,
             dev.model().d2h_seconds(static_cast<double>(slice_bytes)),
             slice_bytes);
  // Each peer's slice drains on its copy stream, overlapping whatever the
  // mesh does next.
  coop_peer_slices_d2h(s, peers, slice_bytes);
}

void coop_panel_factor(Device& dev, Stream s, std::span<const CoopPeer> peers,
                       index_t n, DeviceBuffer& buf, std::size_t off,
                       index_t lda, index_t block) {
  const double num_devices = static_cast<double>(peers.size() + 1);
  const index_t below = lda - n;

  // Numerics: once, on the owner's buffer — identical call sequence to
  // potrf_lower + trsm_right_lower_trans, so the factored panel is
  // bitwise independent of how many devices share the modeled work.
  dense::potrf_lower_parallel(dev.compute_pool(), dev.compute_threads(), n,
                              buf.data() + off, lda);
  if (below > 0) {
    dense::trsm_right_lower_trans_parallel(
        dev.compute_pool(), dev.compute_threads(), below, n,
        buf.data() + off, lda, buf.data() + off + n, lda);
  }

  // Modeled: block-column rounds — each round's diagonal block factors
  // serially on the owner while the trailing update splits evenly across
  // the devices (the panel is already resident everywhere via
  // coop_copy_h2d's all-gather).
  const index_t nb = (n + block - 1) / block;
  double diag_flops = 0.0;
  double diag_seconds = 0.0;
  for (index_t j = 0; j < n; j += block) {
    const index_t wj = std::min(block, n - j);
    diag_flops += dense::flops_potrf(wj);
    diag_seconds += dev.model().gpu_kernel_seconds(dense::flops_potrf(wj));
  }
  const double trail_flops =
      std::max(0.0, dense::flops_potrf(n) - diag_flops);
  const double round_lat = coop_round_latency(dev, peers);
  const double potrf_dur =
      diag_seconds +
      dev.model().gpu_kernel_seconds(trail_flops / num_devices) +
      static_cast<double>(nb) * round_lat;
  coop_phase(dev, s, peers, potrf_dur);
  coop_barrier(s);

  if (below > 0) {
    const double trsm_dur =
        dev.model().gpu_kernel_seconds(dense::flops_trsm(below, n) /
                                       num_devices) +
        round_lat;
    coop_phase(dev, s, peers, trsm_dur);
    coop_barrier(s);
  }
}

void coop_syrk_update_d2h(Device& dev, Stream s,
                          std::span<const CoopPeer> peers, index_t n,
                          index_t k, const DeviceBuffer& abuf,
                          std::size_t a_off, index_t lda, DeviceBuffer& cbuf,
                          double* host_out) {
  const double num_devices = static_cast<double>(peers.size() + 1);
  SPCHOL_CHECK(static_cast<std::size_t>(n) * n <= cbuf.size(),
               "coop_syrk_update_d2h out of range");

  // Numerics: once, on the owner — the same zero + SYRK as
  // syrk_lower_nt_beta0 followed by one contiguous download, so the host
  // update matrix is bitwise identical to the single-device path.
  zero_region(cbuf, 0, n, n, n);
  dense::syrk_lower_nt_parallel(dev.compute_pool(), dev.compute_threads(), n,
                                k, abuf.data() + a_off, lda, cbuf.data(), n);
  std::memcpy(host_out, cbuf.data(),
              static_cast<std::size_t>(n) * n * sizeof(double));

  // Modeled: each device computes its row-block share of C (the panel is
  // already resident everywhere from the cooperative factor's broadcast)
  // and downloads ITS slice of the update matrix over its own link; the
  // host assembles once every slice has landed.
  const double syrk_dur = dev.model().gpu_kernel_seconds(
      dense::flops_syrk(n, k) / num_devices);
  coop_phase(dev, s, peers, syrk_dur);

  const std::size_t slice_bytes = static_cast<std::size_t>(
      static_cast<double>(n) * n * sizeof(double) / num_devices);
  std::vector<int> slices = coop_peer_slices_d2h(s, peers, slice_bytes);
  slices.push_back(dev.record(
      s, OpKind::kD2H,
      dev.model().d2h_seconds(static_cast<double>(slice_bytes)),
      slice_bytes));
  for (const int op : slices) host_wait(s, op);
}

}  // namespace spchol::gpu
