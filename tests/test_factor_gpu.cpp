// GPU-specific factorization behaviour: modeled-time orderings, overlap,
// variant trade-offs, threshold effects — the qualitative results of
// §III/§IV reproduced at unit-test scale.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "test_util.hpp"

namespace spchol {
namespace {

FactorStats run(const CscMatrix& a, Method m, Execution e,
                RlbVariant v = RlbVariant::kStreamed,
                offset_t threshold = 60'000, int workers = 0) {
  SolverOptions opts;
  opts.factor.method = m;
  opts.factor.exec = e;
  opts.factor.rlb_variant = v;
  opts.factor.gpu_threshold_rl = threshold;
  opts.factor.gpu_threshold_rlb = threshold;
  opts.factor.cpu_workers = workers;
  CholeskySolver solver(opts);
  solver.factorize(a);
  return solver.stats();
}

/// A matrix big enough that large supernodes favour the device: the
/// bone010 analog class (3 dofs/node vector grid — few, large supernodes).
CscMatrix test_matrix() { return grid3d_vector(16, 16, 16, 3); }

TEST(GpuFactor, HybridBeatsGpuOnlyOnSupernodeRichMatrices) {
  // §IV.B: "GPU only versions did not achieve reasonable speedup" because
  // small supernodes pay transfer+launch without enough work.
  const CscMatrix a = grid2d_5pt(60, 60);  // many tiny supernodes
  const auto hybrid = run(a, Method::kRL, Execution::kGpuHybrid);
  const auto gpu_only = run(a, Method::kRL, Execution::kGpuOnly);
  EXPECT_LT(hybrid.modeled_seconds, gpu_only.modeled_seconds);
}

TEST(GpuFactor, GpuOnlySlowerThanCpuOnSmallMatrices) {
  const CscMatrix a = grid2d_5pt(40, 40);
  const auto cpu = run(a, Method::kRL, Execution::kCpuParallel);
  const auto gpu_only = run(a, Method::kRL, Execution::kGpuOnly);
  EXPECT_GT(gpu_only.modeled_seconds, cpu.modeled_seconds);
}

TEST(GpuFactor, HybridAcceleratesLargeMatrix) {
  const CscMatrix a = test_matrix();
  const auto cpu = run(a, Method::kRL, Execution::kCpuParallel);
  const auto gpu = run(a, Method::kRL, Execution::kGpuHybrid);
  EXPECT_LT(gpu.modeled_seconds, cpu.modeled_seconds)
      << "hybrid GPU should beat the CPU baseline on a 3D problem";
}

TEST(GpuFactor, RlFasterThanRlbOnGpu) {
  // §IV.B: "the GPU accelerated version of RLB is slower than RL but it
  // can factorize larger matrices".
  const CscMatrix a = test_matrix();
  const auto rl = run(a, Method::kRL, Execution::kGpuHybrid);
  const auto rlb =
      run(a, Method::kRLB, Execution::kGpuHybrid, RlbVariant::kStreamed);
  EXPECT_LT(rl.modeled_seconds, rlb.modeled_seconds);
}

TEST(GpuFactor, RlbStreamedUsesLessDeviceMemoryThanRl) {
  const CscMatrix a = test_matrix();
  const auto rl = run(a, Method::kRL, Execution::kGpuOnly);
  const auto rlb =
      run(a, Method::kRLB, Execution::kGpuOnly, RlbVariant::kStreamed);
  EXPECT_LT(rlb.device_peak_bytes, rl.device_peak_bytes);
}

TEST(GpuFactor, RlbBatchedMatchesRlMemoryFootprint) {
  // §III: v1 "keeps small update matrices on the GPU" — same footprint
  // class as RL (full update matrix on the device).
  const CscMatrix a = test_matrix();
  const auto rl = run(a, Method::kRL, Execution::kGpuOnly);
  const auto v1 =
      run(a, Method::kRLB, Execution::kGpuOnly, RlbVariant::kBatched);
  EXPECT_EQ(v1.device_peak_bytes, rl.device_peak_bytes);
}

TEST(GpuFactor, BatchedFewerTransfersThanStreamed) {
  // v1 transfers once per supernode; v2 once per block product.
  const CscMatrix a = test_matrix();
  SolverOptions o;
  o.factor.method = Method::kRLB;
  o.factor.exec = Execution::kGpuOnly;
  o.factor.rlb_variant = RlbVariant::kBatched;
  CholeskySolver s1(o);
  s1.factorize(a);
  o.factor.rlb_variant = RlbVariant::kStreamed;
  CholeskySolver s2(o);
  s2.factorize(a);
  const auto& d1 = s1.factor().stats();
  const auto& d2 = s2.factor().stats();
  // Same bytes class, many more transfer operations for v2.
  EXPECT_GT(d2.d2h_bytes + 1, d1.d2h_bytes / 2);  // same order of magnitude
  EXPECT_GT(d2.num_gpu_kernels, d1.num_gpu_kernels / 2);
  EXPECT_GT(static_cast<double>(d2.num_cpu_blas_calls + 1), 0.0);
}

TEST(GpuFactor, AsyncPanelCopyOverlapsUpdateKernel) {
  // The modeled makespan with the async D2H of the factored panel must be
  // smaller than the serialized sum of all modeled operation durations.
  const CscMatrix a = test_matrix();
  const auto st = run(a, Method::kRL, Execution::kGpuOnly);
  const double serialized = st.cpu_blas_seconds + st.gpu_kernel_seconds +
                            st.h2d_seconds + st.d2h_seconds +
                            st.assembly_seconds;
  EXPECT_LT(st.modeled_seconds, serialized);
}

TEST(GpuFactor, ThresholdSweepHasInteriorOptimum) {
  // §III: "for each supernode we check its size and if it is below a
  // threshold we keep it on CPU" — the best threshold is neither 0 (all
  // GPU) nor infinity (all CPU) for a 3D problem, at any CPU lane count:
  // small supernodes' launch and transfer latency is never hidden behind
  // another kernel, as the device has one compute engine. Modeled time
  // does not depend on the real cores, so 64 lanes are 64 worker threads
  // of one call.
  const CscMatrix a = test_matrix();
  for (const int workers : {4, 16, 64}) {
    SCOPED_TRACE("cpu_workers=" + std::to_string(workers));
    auto modeled = [&](offset_t threshold) {
      return run(a, Method::kRL, Execution::kGpuHybrid,
                 RlbVariant::kStreamed, threshold, workers)
          .modeled_seconds;
    };
    const double tmid = modeled(60'000);
    EXPECT_LT(tmid, modeled(0));
    EXPECT_LT(tmid, modeled(std::numeric_limits<offset_t>::max()));
  }
}

TEST(GpuFactor, AllVariantsProduceAccurateFactors) {
  const CscMatrix a = grid3d_7pt(9, 9, 9);
  for (const auto v : {RlbVariant::kBatched, RlbVariant::kStreamed}) {
    SolverOptions o;
    o.factor.method = Method::kRLB;
    o.factor.exec = Execution::kGpuHybrid;
    o.factor.rlb_variant = v;
    o.factor.gpu_threshold_rlb = 10'000;
    CholeskySolver s(o);
    s.factorize(a);
    EXPECT_LT(testing::solve_residual(a, s.factor()), 1e-13);
  }
}

TEST(GpuFactor, DevicePeakScalesWithThreshold) {
  // A higher threshold sends fewer supernodes to the device, so the
  // preallocated buffers can only shrink.
  const CscMatrix a = test_matrix();
  const auto low = run(a, Method::kRL, Execution::kGpuHybrid,
                       RlbVariant::kStreamed, 1'000);
  const auto high = run(a, Method::kRL, Execution::kGpuHybrid,
                        RlbVariant::kStreamed, 500'000);
  EXPECT_GE(low.supernodes_on_gpu, high.supernodes_on_gpu);
  EXPECT_GE(low.device_peak_bytes, high.device_peak_bytes);
}

TEST(GpuFactor, ResidentFactorNeedsDeviceRoomForEveryGpuPanel) {
  // device_resident_factor keeps every GPU supernode's factored panel on
  // the device for the whole factorization: the 20^3 wide-grid factor
  // (~66 MB of GPU panels on top of the slot buffers) overflows an 85 MB
  // device that the transient-buffer run fits in, and fits on 170 MB.
  // Residency only changes the accounting, never the bits.
  const CscMatrix a = grid3d_wide(20, 20, 20, 2);
  auto run = [&](bool resident, std::size_t mib) {
    SolverOptions opts;
    opts.factor.method = Method::kRLB;
    opts.factor.exec = Execution::kGpuHybrid;
    opts.factor.cpu_workers = 4;
    opts.factor.gpu_threshold_rlb = 8000;
    opts.factor.device_resident_factor = resident;
    opts.factor.device.memory_bytes = mib << 20;
    CholeskySolver solver(opts);
    solver.factorize(a);
    const auto v = solver.factor().values();
    return std::vector<double>{v.begin(), v.end()};
  };
  EXPECT_THROW(run(true, 85), gpu::DeviceOutOfMemory);
  const std::vector<double> transient = run(false, 85);
  const std::vector<double> resident = run(true, 170);
  ASSERT_EQ(resident.size(), transient.size());
  for (std::size_t i = 0; i < resident.size(); ++i) {
    ASSERT_EQ(resident[i], transient[i]) << "value index " << i;
  }
}

TEST(GpuFactor, DeviceModelValidated) {
  // A zero or negative transfer rate would price transfers at infinite
  // or negative time; factorize rejects the model up front instead.
  const CscMatrix a = grid3d_vector(10, 10, 10, 3);
  auto factorize = [&](auto mutate) {
    SolverOptions opts;
    opts.factor.method = Method::kRL;
    opts.factor.exec = Execution::kGpuHybrid;
    opts.factor.gpu_threshold_rl = 2000;
    mutate(opts.factor.device.model);
    CholeskySolver solver(opts);
    solver.factorize(a);
    return solver.stats();
  };
  constexpr double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(factorize([](gpu::PerfModel& m) { m.h2d_gbytes_per_s = 0; }),
               InvalidArgument);
  EXPECT_THROW(factorize([](gpu::PerfModel& m) { m.h2d_gbytes_per_s = -90; }),
               InvalidArgument);
  EXPECT_THROW(factorize([](gpu::PerfModel& m) { m.gpu_peak_gflops = inf; }),
               InvalidArgument);
  EXPECT_THROW(
      factorize([](gpu::PerfModel& m) { m.transfer_latency = -1e-6; }),
      InvalidArgument);
  EXPECT_THROW(factorize([](gpu::PerfModel& m) {
                 m.issue_overhead = std::numeric_limits<double>::quiet_NaN();
               }),
               InvalidArgument);
  // Zero latencies and the defaults are valid.
  const FactorStats st =
      factorize([](gpu::PerfModel& m) { m.transfer_latency = 0.0; });
  EXPECT_TRUE(std::isfinite(st.modeled_seconds));
  EXPECT_GT(st.supernodes_on_gpu, 0);
  factorize([](gpu::PerfModel&) {});
}

}  // namespace
}  // namespace spchol
