#include "spchol/core/replay.hpp"

#include <algorithm>

namespace spchol::detail {

void replay(const TaskGraph& g, std::span<const gpu::OpRecord> records,
            const ReplayResources& r, FactorStats& st) {
  using gpu::OpKind;
  using gpu::Role;
  SPCHOL_CHECK(records.size() == g.size(), "one cost record per task");
  const std::size_t nd = std::max<std::size_t>(1, r.devices);
  const std::size_t np = std::max<std::size_t>(1, r.pairs);
  // Stream tails [device][pair][role], host-link tails [device][direction]
  // and hop-link tails [src][dst]: each resource serves its ops in issue
  // order, one at a time.
  std::vector<double> tail(nd * np * 2, 0.0);
  auto stream = [&](std::size_t d, std::size_t p, Role role) -> double& {
    return tail[(d * np + p) * 2 + static_cast<std::size_t>(role)];
  };
  std::vector<double> host_link(nd * 2, 0.0);
  std::vector<double> hop_link(nd * nd, 0.0);
  std::vector<double> dev_end(nd, 0.0);

  st.per_device.resize(nd);
  for (DeviceBreakdown& pd : st.per_device) {
    pd.kernel_seconds = pd.h2d_seconds = pd.d2h_seconds = 0.0;
    pd.overlap_seconds = pd.modeled_seconds = 0.0;
    pd.num_kernels = 0;
  }
  st.cpu_blas_seconds = st.assembly_seconds = 0.0;
  st.h2d_bytes = st.d2h_bytes = 0;
  st.cross_device_assembly_seconds = 0.0;
  st.cross_device_transfer_bytes = 0;
  st.num_cross_device_transfers = 0;
  std::vector<LinkTransfer> links(nd * nd);

  // Per running node: each op's end, and the pair it took per device
  // together with the time that pair was free.
  std::vector<double> end;
  std::vector<std::size_t> pair(nd);
  std::vector<double> pair_free(nd);
  constexpr std::size_t kNoPair = static_cast<std::size_t>(-1);

  auto run = [&](std::size_t i, double t0) {
    const gpu::OpRecord& rec = records[i];
    end.assign(rec.size(), 0.0);
    std::fill(pair.begin(), pair.end(), kNoPair);
    double h = t0;     // the node's host cursor
    double busy = t0;  // end of its last host activity (not a wait)
    for (std::size_t k = 0; k < rec.size(); ++k) {
      const gpu::Op& op = rec[k];
      const double dep =
          op.after >= 0 ? end[static_cast<std::size_t>(op.after)] : 0.0;
      switch (op.kind) {
        case OpKind::kCpuBlas:
        case OpKind::kAssembly:
          h = std::max(h, dep) + op.seconds;
          busy = h;
          (op.kind == OpKind::kCpuBlas ? st.cpu_blas_seconds
                                       : st.assembly_seconds) += op.seconds;
          break;
        case OpKind::kWait:
          h = std::max(h, dep);
          break;
        case OpKind::kLink: {
          const auto a = static_cast<std::size_t>(op.device);
          const auto b = static_cast<std::size_t>(op.dst);
          SPCHOL_CHECK(a < nd && b < nd, "link op outside the device set");
          double& free = hop_link[a * nd + b];
          free = std::max({h, dep, free}) + op.seconds;
          h = busy = free;
          LinkTransfer& lt = links[a * nd + b];
          lt.bytes += op.bytes;
          lt.seconds += op.seconds;
          lt.transfers++;
          st.cross_device_assembly_seconds += op.seconds;
          st.cross_device_transfer_bytes += op.bytes;
          st.num_cross_device_transfers++;
          break;
        }
        case OpKind::kBarrier: {
          double t = 0.0;
          for (std::size_t d = 0; d < nd; ++d) {
            if (pair[d] != kNoPair) {
              t = std::max(t, stream(d, pair[d], Role::kCompute));
            }
          }
          for (std::size_t d = 0; d < nd; ++d) {
            if (pair[d] != kNoPair) stream(d, pair[d], Role::kCompute) = t;
          }
          end[k] = t;
          continue;
        }
        case OpKind::kKernel:
        case OpKind::kH2D:
        case OpKind::kD2H:
        case OpKind::kP2P: {
          const auto d = static_cast<std::size_t>(op.device);
          SPCHOL_CHECK(d < nd, "device op outside the device set");
          h += op.issue;
          busy = h;
          if (pair[d] == kNoPair) {
            for (std::size_t p = 0; p < np; ++p) {
              const double f = std::max(stream(d, p, Role::kCompute),
                                        stream(d, p, Role::kCopy));
              if (p == 0 || f < pair_free[d]) {
                pair[d] = p;
                pair_free[d] = f;
              }
            }
          }
          double& s_tail = stream(d, pair[d], op.role);
          double start = std::max({s_tail, h, dep, pair_free[d]});
          // Host↔device transfers share the device's one link per
          // direction, whichever stream issues them.
          double* link = op.kind == OpKind::kH2D   ? &host_link[d * 2]
                         : op.kind == OpKind::kD2H ? &host_link[d * 2 + 1]
                                                   : nullptr;
          if (link != nullptr) start = std::max(start, *link);
          const double stop = start + op.seconds;
          if (link != nullptr) *link = stop;
          // Cross-stream overlap: the part of [start, stop) during which
          // another stream of this device still has work.
          double others = 0.0;
          for (std::size_t t = d * np * 2; t < (d + 1) * np * 2; ++t) {
            if (&tail[t] != &s_tail) others = std::max(others, tail[t]);
          }
          DeviceBreakdown& pd = st.per_device[d];
          if (others > start) {
            pd.overlap_seconds += std::min(stop, others) - start;
          }
          s_tail = stop;
          dev_end[d] = std::max(dev_end[d], stop);
          end[k] = stop;
          if (op.kind == OpKind::kKernel) {
            pd.kernel_seconds += op.seconds;
            pd.num_kernels++;
          } else if (op.kind == OpKind::kH2D) {
            pd.h2d_seconds += op.seconds;
            st.h2d_bytes += op.bytes;
          } else if (op.kind == OpKind::kD2H) {
            pd.d2h_seconds += op.seconds;
            st.d2h_bytes += op.bytes;
          }
          continue;
        }
      }
      end[k] = h;
    }
    return LaneSpan{busy, h};
  };
  const double host = list_schedule(g, r.cpu_lanes, run);

  st.modeled_seconds = 0.0;
  st.gpu_kernel_seconds = st.h2d_seconds = st.d2h_seconds = 0.0;
  st.gpu_overlap_seconds = 0.0;
  st.num_gpu_kernels = 0;
  for (std::size_t d = 0; d < nd; ++d) {
    DeviceBreakdown& pd = st.per_device[d];
    // The host lanes belong to device 0's share of the makespan.
    pd.modeled_seconds = d == 0 ? std::max(host, dev_end[0]) : dev_end[d];
    st.modeled_seconds = std::max(st.modeled_seconds, pd.modeled_seconds);
    st.gpu_kernel_seconds += pd.kernel_seconds;
    st.h2d_seconds += pd.h2d_seconds;
    st.d2h_seconds += pd.d2h_seconds;
    st.gpu_overlap_seconds += pd.overlap_seconds;
    st.num_gpu_kernels += pd.num_kernels;
  }
  st.per_link.clear();
  for (std::size_t a = 0; a < nd; ++a) {
    for (std::size_t b = 0; b < nd; ++b) {
      LinkTransfer lt = links[a * nd + b];
      if (lt.transfers == 0) continue;
      lt.src = static_cast<int>(a);
      lt.dst = static_cast<int>(b);
      st.per_link.push_back(lt);
    }
  }
}

}  // namespace spchol::detail
