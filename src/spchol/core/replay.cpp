#include "spchol/core/replay.hpp"

#include <algorithm>

namespace spchol::detail {

void replay(const TaskGraph& g, std::span<const gpu::OpRecord> records,
            const ReplayResources& r, FactorStats& st) {
  using gpu::OpKind;
  using gpu::Role;
  SPCHOL_CHECK(records.size() == g.size(), "one cost record per task");
  const std::size_t np = std::max<std::size_t>(1, r.pairs);
  // Stream tails [pair][role], host-link tails [direction] and the
  // compute engine's tail: each resource serves its ops in issue order,
  // one at a time.
  std::vector<double> tail(np * 2, 0.0);
  auto stream = [&](std::size_t p, Role role) -> double& {
    return tail[p * 2 + static_cast<std::size_t>(role)];
  };
  double host_link[2] = {0.0, 0.0};
  double engine = 0.0;
  double dev_end = 0.0;

  st.cpu_blas_seconds = st.assembly_seconds = 0.0;
  st.gpu_kernel_seconds = st.h2d_seconds = st.d2h_seconds = 0.0;
  st.gpu_overlap_seconds = 0.0;
  st.h2d_bytes = st.d2h_bytes = 0;
  st.num_gpu_kernels = 0;

  // Per running node: each op's end, and the pair it took together with
  // the time that pair was free.
  std::vector<double> end;
  constexpr std::size_t kNoPair = static_cast<std::size_t>(-1);

  auto run = [&](std::size_t i, double t0) {
    const gpu::OpRecord& rec = records[i];
    end.assign(rec.size(), 0.0);
    std::size_t pair = kNoPair;
    double pair_free = 0.0;
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
        case OpKind::kKernel:
        case OpKind::kH2D:
        case OpKind::kD2H: {
          h += op.issue;
          busy = h;
          if (pair == kNoPair) {
            for (std::size_t p = 0; p < np; ++p) {
              const double f =
                  std::max(stream(p, Role::kCompute), stream(p, Role::kCopy));
              if (p == 0 || f < pair_free) {
                pair = p;
                pair_free = f;
              }
            }
          }
          double& s_tail = stream(pair, op.role);
          double start = std::max({s_tail, h, dep, pair_free});
          // Kernels share the device's one compute engine, host↔device
          // transfers its one link per direction, whichever stream
          // issues them.
          double& shared = op.kind == OpKind::kKernel ? engine
                           : op.kind == OpKind::kH2D  ? host_link[0]
                                                      : host_link[1];
          start = std::max(start, shared);
          const double stop = start + op.seconds;
          shared = stop;
          // Cross-stream overlap: the part of [start, stop) during which
          // another stream still has work.
          double others = 0.0;
          for (const double& t : tail) {
            if (&t != &s_tail) others = std::max(others, t);
          }
          if (others > start) {
            st.gpu_overlap_seconds += std::min(stop, others) - start;
          }
          s_tail = stop;
          dev_end = std::max(dev_end, stop);
          end[k] = stop;
          if (op.kind == OpKind::kKernel) {
            st.gpu_kernel_seconds += op.seconds;
            st.num_gpu_kernels++;
          } else if (op.kind == OpKind::kH2D) {
            st.h2d_seconds += op.seconds;
            st.h2d_bytes += op.bytes;
          } else {
            st.d2h_seconds += op.seconds;
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
  st.modeled_seconds = std::max(host, dev_end);
}

}  // namespace spchol::detail
