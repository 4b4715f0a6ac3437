// Multi-device sharding coverage: DeviceRegistry-backed runs must keep
// factors and solves bitwise identical to their single-device reference
// at every device count — and to kCpuSerial for RL — (the planner's
// separator-tree assignment and the cooperative spine pipeline change
// the modeled timeline, never the bits); the modeled factorization of
// the nlpkkt80 analog must scale
// with the device count; a factor that overflows one device's memory
// must succeed when its shards split across two; and gpu_devices must be
// validated at every entry point.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "spchol/core/internal.hpp"
#include "spchol/gpu/device.hpp"
#include "spchol/service/solver_runtime.hpp"
#include "test_util.hpp"

namespace spchol {
namespace {

std::vector<double> factor_values(const CscMatrix& a, Method m, Execution e,
                                  int devices, int workers, int streams,
                                  offset_t threshold,
                                  FactorStats* stats = nullptr) {
  SolverOptions opts;
  opts.factor.method = m;
  opts.factor.exec = e;
  opts.factor.cpu_workers = workers;
  opts.factor.gpu_streams = streams;
  opts.factor.gpu_devices = devices;
  opts.factor.gpu_threshold_rl = threshold;
  opts.factor.gpu_threshold_rlb = threshold;
  CholeskySolver solver(opts);
  solver.factorize(a);
  if (stats != nullptr) *stats = solver.stats();
  const auto v = solver.factor().values();
  return {v.begin(), v.end()};
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " value index " << i;
  }
}

struct Case {
  const char* name;
  CscMatrix (*make)();
};

const Case kCases[] = {
    {"wide_6x6x6", [] { return grid3d_wide(6, 6, 6, 2); }},
    {"vector_8x8x8", [] { return grid3d_vector(8, 8, 8, 3); }},
    {"random_300", [] { return random_spd(300, 6, 3); }},
};

class MultiDeviceMethods : public ::testing::TestWithParam<Method> {};

TEST_P(MultiDeviceMethods, FactorBitwiseAcrossDeviceCounts) {
  // Reference: the single-device single-worker hybrid. RL's device path
  // is additionally bitwise identical to kCpuSerial (asserted below);
  // RLB's is not — its block products round through device scratch, a
  // combo-invariant rounding that differs from the CPU's in-place
  // updates (see test_parallel_factor.cpp) — so the device-count sweep
  // pins every shard layout to the one-device bits.
  const Method method = GetParam();
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    const CscMatrix a = c.make();
    const auto reference = factor_values(a, method, Execution::kGpuHybrid,
                                         /*devices=*/1, /*workers=*/1,
                                         /*streams=*/1, /*threshold=*/2000);
    if (method == Method::kRL) {
      expect_bitwise_equal(
          factor_values(a, method, Execution::kCpuSerial, 1, 1, 1, 2000),
          reference, "hybrid reference vs kCpuSerial");
    }
    for (const int devices : {1, 2, 4}) {
      for (const int workers : {1, 4, 8}) {
        for (const int streams : {1, 4}) {
          FactorStats st;
          const auto hybrid = factor_values(
              a, method, Execution::kGpuHybrid, devices, workers, streams,
              /*threshold=*/2000, &st);
          const std::string what = std::string(c.name) +
                                   " devices=" + std::to_string(devices) +
                                   " workers=" + std::to_string(workers) +
                                   " streams=" + std::to_string(streams);
          expect_bitwise_equal(reference, hybrid, what);
          EXPECT_EQ(st.gpu_devices_used, devices) << what;
          EXPECT_EQ(static_cast<int>(st.per_device.size()), devices)
              << what;
          index_t routed = 0;
          for (const auto& d : st.per_device) routed += d.supernodes;
          EXPECT_EQ(routed, st.supernodes_on_gpu) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RLAndRLB, MultiDeviceMethods,
                         ::testing::Values(Method::kRL, Method::kRLB),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(MultiDevice, ModeledScalingOnNlpkkt80Analog) {
  // The nlpkkt80 analog of the Table I runs (matrix/dataset.cpp), at the
  // paper's 8-worker configuration. The separator-tree partition plus
  // the cooperative spine pipeline must scale the modeled factorization
  // makespan near-linearly: >= 1.6x with two devices, >= 2.5x with
  // four — while every run stays bitwise identical to kCpuSerial.
  const CscMatrix a = grid3d_wide(20, 20, 20, 2);
  const auto serial = factor_values(a, Method::kRL, Execution::kCpuSerial,
                                    1, 1, 1, /*threshold=*/8000);
  double modeled[5] = {0.0};
  for (const int devices : {1, 2, 4}) {
    FactorStats st;
    const auto hybrid =
        factor_values(a, Method::kRL, Execution::kGpuHybrid, devices,
                      /*workers=*/8, /*streams=*/4, /*threshold=*/8000, &st);
    expect_bitwise_equal(serial, hybrid,
                         "devices=" + std::to_string(devices));
    modeled[devices] = st.modeled_seconds;
    EXPECT_GT(st.supernodes_on_gpu, 0) << devices;
    if (devices == 1) {
      EXPECT_EQ(st.coop_supernodes, 0);
    } else {
      // The wide top separators must actually run cooperatively — with
      // whole-supernode assignment the root alone (61% of the flops)
      // caps scaling far below the bars above.
      EXPECT_GT(st.coop_supernodes, 0) << devices;
    }
  }
  ASSERT_GT(modeled[1], 0.0);
  ASSERT_GT(modeled[2], 0.0);
  ASSERT_GT(modeled[4], 0.0);
  EXPECT_GE(modeled[1] / modeled[2], 1.6);
  EXPECT_GE(modeled[1] / modeled[4], 2.5);
}

TEST(MultiDevice, SolveBitwiseAcrossDeviceCounts) {
  const CscMatrix a = grid3d_vector(8, 8, 8, 3);
  SolverOptions fo;
  fo.factor.method = Method::kRL;
  CholeskySolver solver(fo);
  solver.factorize(a);
  const CholeskyFactor& f = solver.factor();

  const index_t n = a.cols();
  const index_t nrhs = 8;
  std::vector<double> b(static_cast<std::size_t>(n) * nrhs);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.25 * static_cast<double>(i % 17);
  }
  std::vector<double> ref(b.size());
  f.solve_multi(b, ref, nrhs);

  for (const int devices : {1, 2, 4}) {
    for (const int workers : {1, 4, 8}) {
      for (const int streams : {1, 4}) {
        SolveOptions o;
        o.exec = Execution::kGpuHybrid;
        o.workers = workers;
        o.gpu_streams = streams;
        o.gpu_devices = devices;
        o.gpu_threshold = 500;
        std::vector<double> x(b.size());
        f.solve_multi(b, x, nrhs, o);
        expect_bitwise_equal(ref, x,
                             "devices=" + std::to_string(devices) +
                                 " workers=" + std::to_string(workers) +
                                 " streams=" + std::to_string(streams));
      }
    }
  }
}

TEST(MultiDevice, OneDeviceOomTwoDevicesSucceed) {
  // Resident-factor runs hold each shard's panels on its device for the
  // whole factorization: the 20^3 wide-grid factor (~66 MB of panels)
  // overflows one 85 MB device but fits when two devices each hold
  // roughly half — the paper's rationale for multi-GPU runs on the
  // nlpkkt120 class.
  const CscMatrix a = grid3d_wide(20, 20, 20, 2);
  auto run = [&](int devices) {
    SolverOptions opts;
    opts.factor.method = Method::kRLB;
    opts.factor.exec = Execution::kGpuHybrid;
    opts.factor.cpu_workers = 4;
    opts.factor.gpu_streams = 4;
    opts.factor.gpu_devices = devices;
    opts.factor.gpu_threshold_rlb = 8000;
    opts.factor.device_resident_factor = true;
    opts.factor.device.memory_bytes = 85ull << 20;
    CholeskySolver solver(opts);
    solver.factorize(a);
    const auto v = solver.factor().values();
    return std::vector<double>{v.begin(), v.end()};
  };
  EXPECT_THROW(run(1), gpu::DeviceOutOfMemory);
  const auto sharded = run(2);
  // Reference: the unconstrained single-device hybrid (RLB's device
  // rounding is hybrid-combo-invariant but differs from kCpuSerial).
  const auto reference = factor_values(a, Method::kRLB,
                                       Execution::kGpuHybrid, 1, 1, 1,
                                       /*threshold=*/8000);
  expect_bitwise_equal(reference, sharded, "two-device resident factor");
}

TEST(MultiDevice, PlanBuiltForFourExecutesOnSmallerRegistry) {
  // The registry-shrink path: a plan built for N devices may execute on
  // an injected runtime whose registry holds M < N — plan ordinals fold
  // mod M (DeviceSet, shared by every scheduled executor), so routing
  // stays total, results stay bitwise identical to the sequential run,
  // and the per-device stats describe the M devices that actually ran.
  // Covered for the RL and RLB factorizations and the scheduled solve.
  const CscMatrix a = grid3d_vector(8, 8, 8, 3);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  const SymbolicFactor symb =
      SymbolicFactor::analyze(a, fill, AnalyzeOptions{});
  for (const Method method : {Method::kRL, Method::kRLB}) {
    SCOPED_TRACE(to_string(method));
    FactorOptions fo;
    fo.method = method;
    fo.exec = Execution::kGpuHybrid;
    fo.cpu_workers = 4;
    fo.gpu_streams = 2;
    fo.gpu_devices = 4;
    fo.gpu_threshold_rl = 2000;
    fo.gpu_threshold_rlb = 2000;
    const detail::PlannedGraph pg = detail::build_planned_graph(
        symb, fo, resolve_worker_count(fo.cpu_workers));
    ASSERT_EQ(pg.devices, 4);
    // The sequential driver (one worker). RLB's device products round
    // through device scratch, so its reference is the one-worker hybrid
    // run rather than kCpuSerial (see FactorBitwiseAcrossDeviceCounts).
    const auto reference =
        factor_values(a, method, Execution::kGpuHybrid, 1, 1, 1,
                      /*threshold=*/2000);
    for (const int registry_devices : {1, 2, 3}) {
      SCOPED_TRACE("registry=" + std::to_string(registry_devices));
      RuntimeOptions ro;
      ro.workers = 4;
      ro.gpu_devices = registry_devices;
      SolverRuntime rt(ro);
      detail::ExecutionResources res;
      res.device = &rt.arena().device();
      res.arena = &rt.arena();
      res.planned = &pg;
      const CholeskyFactor f = CholeskyFactor::factorize(a, symb, fo, &res);
      const auto v = f.values();
      expect_bitwise_equal(reference, {v.begin(), v.end()},
                           "shrunk registry factor");
      const FactorStats& st = f.stats();
      EXPECT_EQ(st.gpu_devices_used, registry_devices);
      ASSERT_EQ(static_cast<int>(st.per_device.size()), registry_devices);
      index_t routed = 0;
      double kernel_seconds = 0.0;
      for (const auto& d : st.per_device) {
        EXPECT_GE(d.kernel_seconds, 0.0);
        routed += d.supernodes;
        kernel_seconds += d.kernel_seconds;
      }
      EXPECT_EQ(routed, st.supernodes_on_gpu);
      EXPECT_GT(st.supernodes_on_gpu, 0);
      EXPECT_GT(kernel_seconds, 0.0);
      // Folded ordinals keep every engaged device busy: with four plan
      // shards on a two-device registry both devices must run work.
      if (registry_devices == 2) {
        for (const auto& d : st.per_device) EXPECT_GT(d.supernodes, 0);
      }
    }
  }

  // The scheduled kGpuHybrid solve: a PlannedSolve built for 4 devices
  // on the same shrunk registries, against the serial sweep.
  const CholeskyFactor f = CholeskyFactor::factorize(a, symb);
  const index_t n = a.cols();
  const index_t nrhs = 3;
  std::vector<double> b(static_cast<std::size_t>(n) * nrhs);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + static_cast<double>(i % 17) / 7.0;
  }
  std::vector<double> serial(b.size());
  f.solve_multi(b, serial, nrhs);
  SolveOptions so;
  so.exec = Execution::kGpuHybrid;
  so.workers = 4;
  so.rhs_panel = 2;
  so.gpu_devices = 4;
  so.gpu_threshold = 2000;
  const detail::PlannedSolve ps = detail::build_planned_solve(symb, so, 4);
  ASSERT_EQ(ps.devices, 4);
  for (const int registry_devices : {1, 2, 3}) {
    SCOPED_TRACE("solve registry=" + std::to_string(registry_devices));
    RuntimeOptions ro;
    ro.workers = 4;
    ro.gpu_devices = registry_devices;
    SolverRuntime rt(ro);
    detail::ExecutionResources res;
    res.device = &rt.arena().device();
    res.arena = &rt.arena();
    res.planned_solve = &ps;
    std::vector<double> x(b.size());
    SolveStats st;
    detail::solve_with_resources(symb, f.values(), b, x, nrhs, so, &res,
                                 &st);
    expect_bitwise_equal(serial, x, "shrunk registry solve");
    EXPECT_GT(st.supernodes_on_gpu, 0);
    EXPECT_GT(st.tasks, 0u);
  }
}

TEST(MultiDevice, GpuDevicesValidatedEverywhere) {
  const CscMatrix a = grid2d_5pt(6, 6);
  {
    SolverOptions opts;
    opts.factor.gpu_devices = 0;
    CholeskySolver solver(opts);
    EXPECT_THROW(solver.factorize(a), InvalidArgument);
  }
  {
    CholeskySolver solver;
    solver.factorize(a);
    SolveOptions o;
    o.gpu_devices = 0;
    std::vector<double> b(static_cast<std::size_t>(a.cols()), 1.0);
    std::vector<double> x(b.size());
    EXPECT_THROW(solver.factor().solve(b, x, o), InvalidArgument);
  }
  {
    RuntimeOptions ro;
    ro.gpu_devices = 0;
    EXPECT_THROW(SolverRuntime{ro}, InvalidArgument);
  }
}

TEST(MultiDevice, SingleDeviceStatsMatchAggregate) {
  // gpu_devices = 1 must be indistinguishable from the pre-registry
  // runtime: one per-device slice whose fields ARE the aggregate ones.
  const CscMatrix a = grid3d_vector(8, 8, 8, 3);
  FactorStats st;
  factor_values(a, Method::kRL, Execution::kGpuHybrid, /*devices=*/1,
                /*workers=*/4, /*streams=*/4, /*threshold=*/2000, &st);
  ASSERT_EQ(st.per_device.size(), 1u);
  EXPECT_EQ(st.gpu_devices_used, 1);
  EXPECT_EQ(st.coop_supernodes, 0);
  EXPECT_DOUBLE_EQ(st.per_device[0].kernel_seconds, st.gpu_kernel_seconds);
  EXPECT_DOUBLE_EQ(st.per_device[0].h2d_seconds, st.h2d_seconds);
  EXPECT_DOUBLE_EQ(st.per_device[0].d2h_seconds, st.d2h_seconds);
  EXPECT_EQ(st.per_device[0].supernodes, st.supernodes_on_gpu);
  EXPECT_EQ(st.cross_device_assembly_seconds, 0.0);
  EXPECT_EQ(st.num_cross_device_transfers, 0u);
}

}  // namespace
}  // namespace spchol
