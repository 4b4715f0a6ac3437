// The nlpkkt120 story as an application: on a device whose memory cannot
// hold RL's full update matrix, the factorization fails with
// DeviceOutOfMemory; falling back to RLB v2 — which streams one block
// product at a time — completes the solve within the same budget.
// (Paper §III/§IV: "RL and the first version of RLB cannot be used to
// factorize certain very large matrices on GPU"; Table I's blank
// nlpkkt120 row vs Table II's 114.658 s.)
#include <cstdio>
#include <vector>

#include "spchol/spchol.hpp"

int main() {
  using namespace spchol;
  // A problem whose supernodes split into several blocks, so the streamed
  // variant genuinely needs less device memory than the full update matrix.
  const CscMatrix a = grid2d_5pt(96, 96);
  std::vector<double> b(a.cols(), 1.0);
  std::printf("multi-block 2D problem: n=%d nnz(lower)=%lld\n",
              a.cols(), static_cast<long long>(a.nnz()));

  SolverOptions opts;
  opts.factor.exec = Execution::kGpuOnly;

  // Size the device between the two methods' needs (the paper's A100
  // stood exactly there for nlpkkt120: RL's update matrix did not fit,
  // RLB v2's single block product did).
  {
    SolverOptions probe = opts;
    probe.factor.method = Method::kRL;
    CholeskySolver p1(probe);
    p1.factorize(a);
    probe.factor.method = Method::kRLB;
    probe.factor.rlb_variant = RlbVariant::kStreamed;
    CholeskySolver p2(probe);
    p2.factorize(a);
    opts.factor.device.memory_bytes =
        (p1.stats().device_peak_bytes + p2.stats().device_peak_bytes) / 2;
    std::printf(
        "device sized to %.1f MiB (RL needs %.1f, RLB v2 needs %.1f)\n",
        static_cast<double>(opts.factor.device.memory_bytes) / (1 << 20),
        static_cast<double>(p1.stats().device_peak_bytes) / (1 << 20),
        static_cast<double>(p2.stats().device_peak_bytes) / (1 << 20));
  }

  // First attempt: RL — needs panel + full update matrix on the device.
  opts.factor.method = Method::kRL;
  CholeskySolver rl(opts);
  try {
    rl.factorize(a);
    std::printf("RL unexpectedly fit — enlarge the problem.\n");
    return 1;
  } catch (const gpu::DeviceOutOfMemory& e) {
    std::printf(
        "RL failed as expected: needs %.1f MiB more than the %.1f MiB "
        "device (%s class of failure as the paper's nlpkkt120).\n",
        static_cast<double>(e.requested() + e.in_use() - e.capacity()) /
            (1 << 20),
        static_cast<double>(e.capacity()) / (1 << 20), "same");
  }

  // Fall back: RLB v2 streams one block product at a time.
  opts.factor.method = Method::kRLB;
  opts.factor.rlb_variant = RlbVariant::kStreamed;
  CholeskySolver rlb(opts);
  rlb.factorize(a);
  const auto x = rlb.solve(b);
  std::printf(
      "RLB v2 succeeded: device peak %.1f MiB of %.1f MiB, modeled time "
      "%.4f s, %d of %d supernodes on the GPU.\n",
      static_cast<double>(rlb.stats().device_peak_bytes) / (1 << 20),
      static_cast<double>(opts.factor.device.memory_bytes) / (1 << 20),
      rlb.stats().modeled_seconds, rlb.stats().supernodes_on_gpu,
      rlb.stats().total_supernodes);
  std::printf("solution residual: %.3e\n", relative_residual(a, x, b));

  // Multi-stream pipelining degrades gracefully on the same capped
  // device: the scheduled driver builds up to four stream-pair slots,
  // and the pool keeps only as many as the memory budget holds (down to
  // the single-pair pipeline) instead of failing. Had not even one slot
  // fit, the factorization would have reported DeviceOutOfMemory with the
  // available bytes — never a zero-slot hang.
  opts.factor.exec = Execution::kGpuHybrid;
  opts.factor.gpu_threshold_rlb = 2'000;  // a real CPU/GPU split here
  opts.factor.cpu_workers = 8;  // the scheduled driver needs > 1 worker
                                // even on a 1-core host (modeled time is
                                // independent of real core count)
  CholeskySolver hybrid(opts);
  hybrid.factorize(a);
  std::printf(
      "hybrid RLB v2 built %d of up to 4 stream-pair slots within the "
      "same budget: device peak %.1f MiB, modeled time %.4f s, modeled "
      "stream overlap %.1f us.\n",
      hybrid.stats().gpu_stream_pairs,
      static_cast<double>(hybrid.stats().device_peak_bytes) / (1 << 20),
      hybrid.stats().modeled_seconds,
      hybrid.stats().gpu_overlap_seconds * 1e6);
  return 0;
}
