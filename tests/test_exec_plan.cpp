// ExecutionPlan coverage: batch-packing invariants of the planner,
// batched-vs-unbatched bitwise identity across worker/stream counts on
// the PFlow_742_small analog and the pathological graphs, FactorOptions
// validation, the batching stats counters (including fused device
// launches), and the >= 1.3x modeled batching speedup acceptance bar.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "spchol/matrix/coo.hpp"
#include "spchol/symbolic/exec_plan.hpp"
#include "test_util.hpp"

namespace spchol {
namespace {

std::vector<double> factor_values(const CscMatrix& a,
                                  const SolverOptions& opts,
                                  FactorStats* stats = nullptr) {
  CholeskySolver solver(opts);
  solver.factorize(a);
  if (stats != nullptr) *stats = solver.stats();
  const auto v = solver.factor().values();
  return {v.begin(), v.end()};
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "value index " << i;
  }
}

/// The pathological shapes of test_parallel_factor plus the purpose-built
/// batching analog: a dense-arrow tail, a pentadiagonal band (hundreds of
/// tiny supernodes, deep scatter chains), a disconnected forest (multiple
/// etree roots), and the wide shallow leaf forest.
std::vector<std::pair<const char*, CscMatrix>> batching_cases() {
  std::vector<std::pair<const char*, CscMatrix>> cases;
  cases.emplace_back("analog", small_supernode_forest(60, 8, 12));
  {
    CooMatrix coo(200, 200);
    for (index_t i = 0; i < 200; ++i) coo.add(i, i, 300.0);
    for (index_t i = 0; i < 199; ++i) coo.add(199, i, -1.0);
    cases.emplace_back("arrow", coo.to_csc());
  }
  {
    const index_t n = 400;
    CooMatrix coo(n, n);
    for (index_t i = 0; i < n; ++i) coo.add(i, i, 5.0);
    for (index_t i = 0; i + 1 < n; ++i) coo.add(i + 1, i, -1.0);
    for (index_t i = 0; i + 2 < n; ++i) coo.add(i + 2, i, -1.0);
    cases.emplace_back("band", coo.to_csc());
  }
  {
    const index_t blocks = 5, bs = 24;
    CooMatrix coo(blocks * bs, blocks * bs);
    for (index_t b = 0; b < blocks; ++b) {
      for (index_t i = 0; i < bs; ++i) {
        coo.add(b * bs + i, b * bs + i, 2.0 * bs);
        for (index_t j = 0; j < i; ++j) coo.add(b * bs + i, b * bs + j, -1.0);
      }
    }
    cases.emplace_back("forest", coo.to_csc());
  }
  return cases;
}

TEST(ExecPlan, BatchesAreContiguousSmallSiblingSubtrees) {
  const CscMatrix a = small_supernode_forest(40, 6, 10);
  const Permutation fill = compute_ordering(a, OrderingMethod::kNatural);
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill);

  PlanOptions popts;
  popts.batch_entries = 200;
  popts.batch_max_supernodes = 8;
  const ExecutionPlan plan = ExecutionPlan::build(symb, {}, {}, popts);
  EXPECT_GT(plan.batches_formed(), 0);
  EXPECT_GT(plan.supernodes_batched(), 0);

  index_t batched_seen = 0;
  for (const PlanNode& n : plan.nodes()) {
    if (n.kind != PlanNodeKind::kBatch) continue;
    ASSERT_GE(n.batch_first, 0);
    ASSERT_LE(n.batch_last, symb.num_supernodes() - 1);
    const index_t members = n.batch_last - n.batch_first + 1;
    EXPECT_GE(members, 2);
    EXPECT_LE(members, popts.batch_max_supernodes);
    batched_seen += members;
    for (index_t s = n.batch_first; s <= n.batch_last; ++s) {
      EXPECT_TRUE(plan.batched(s));
      EXPECT_LT(symb.sn_entries(s), popts.batch_entries);
      // Whole subtrees: every member's children are members too, so a
      // batch can never receive an update from outside itself.
      for (const index_t c : symb.sn_children(s)) {
        EXPECT_GE(c, n.batch_first);
        EXPECT_LE(c, n.batch_last);
      }
      if (n.device_eligible) {
        EXPECT_TRUE(symb.sn_children(s).empty())
            << "device-eligible batches hold independent leaves only";
      }
    }
  }
  EXPECT_EQ(batched_seen, plan.supernodes_batched());

  // Edges reference valid nodes and never self-loop.
  for (const auto& [from, to] : plan.edges()) {
    EXPECT_LT(from, plan.nodes().size());
    EXPECT_LT(to, plan.nodes().size());
    EXPECT_NE(from, to);
  }
}

TEST(ExecPlan, LeafForestBatchesAreDeviceEligible) {
  // Every leaf clique of the analog is one singleton supernode, so all
  // its batches must be device-eligible sibling-leaf packs.
  const CscMatrix a = small_supernode_forest(30, 8, 12);
  const Permutation fill = compute_ordering(a, OrderingMethod::kNatural);
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill);
  PlanOptions popts;
  popts.batch_entries = 300;
  popts.batch_max_supernodes = 8;
  const ExecutionPlan plan = ExecutionPlan::build(symb, {}, {}, popts);
  index_t batches = 0;
  for (const PlanNode& n : plan.nodes()) {
    if (n.kind != PlanNodeKind::kBatch) continue;
    batches++;
    EXPECT_TRUE(n.device_eligible);
  }
  EXPECT_GT(batches, 0);
}

TEST(ExecPlan, BatchedBitwiseIdenticalAcrossWorkersAndStreams) {
  for (const auto& [name, a] : batching_cases()) {
    SCOPED_TRACE(name);
    for (const Method method : {Method::kRL, Method::kRLB}) {
      SCOPED_TRACE(to_string(method));
      auto values = [&](Execution exec, int workers, int streams,
                        offset_t batch_entries, int devices = 1) {
        SolverOptions opts;
        opts.factor.method = method;
        opts.factor.exec = exec;
        opts.factor.cpu_workers = workers;
        opts.factor.gpu_streams = streams;
        opts.factor.gpu_devices = devices;
        opts.factor.gpu_threshold_rl = 600;  // force a mixed CPU/GPU split
        opts.factor.gpu_threshold_rlb = 600;
        opts.factor.batch_entries = batch_entries;
        opts.factor.batch_max_supernodes = 8;
        return factor_values(a, opts);
      };
      // Pure CPU scheduling: batching must not change a single bit at
      // any worker count (0 = hardware concurrency).
      for (const int workers : {0, 1, 4, 8}) {
        SCOPED_TRACE("cpu workers=" + std::to_string(workers));
        expect_bitwise_equal(
            values(Execution::kCpuParallel, workers, 1, 0),
            values(Execution::kCpuParallel, workers, 1, 400));
      }
      // Hybrid: batching must not change a single bit for any
      // worker/stream/device combination either.
      for (const int workers : {0, 1, 4, 8}) {
        for (const int streams : {1, 4}) {
          for (const int devices : {1, 2}) {
            SCOPED_TRACE("hybrid workers=" + std::to_string(workers) +
                         " streams=" + std::to_string(streams) +
                         " devices=" + std::to_string(devices));
            expect_bitwise_equal(
                values(Execution::kGpuHybrid, workers, streams, 0, devices),
                values(Execution::kGpuHybrid, workers, streams, 400,
                       devices));
          }
        }
      }
    }
  }
}

TEST(ExecPlan, FusedDeviceBatchesKeepRlSerialIdentity) {
  // A batch of independent leaves whose COMBINED entries cross the GPU
  // threshold runs as one fused batched launch pair; the device executes
  // the same deterministic kernels in the same order, so the factor must
  // stay bitwise identical to the serial CPU driver.
  const CscMatrix a = small_supernode_forest(48, 16, 20);
  SolverOptions serial;
  serial.factor.method = Method::kRL;
  serial.factor.exec = Execution::kCpuSerial;
  serial.factor.cpu_workers = 1;
  const auto reference = factor_values(a, serial);

  SolverOptions opts;
  opts.factor.method = Method::kRL;
  opts.factor.exec = Execution::kGpuHybrid;
  opts.factor.cpu_workers = 4;
  opts.factor.gpu_streams = 2;
  // Each leaf is 16 x 17 = 272 entries (CPU-bound alone); a batch of
  // eight crosses the 2000-entry threshold as a unit.
  opts.factor.gpu_threshold_rl = 2000;
  opts.factor.batch_entries = 600;
  opts.factor.batch_max_supernodes = 8;
  FactorStats st;
  const auto batched = factor_values(a, opts, &st);
  EXPECT_GT(st.batches_formed, 0);
  EXPECT_GT(st.supernodes_batched, 0);
  EXPECT_GT(st.fused_device_launches, 0u);
  EXPECT_GT(st.supernodes_on_gpu, 0);
  expect_bitwise_equal(reference, batched);
}

TEST(ExecPlan, BatchCountersZeroWhenBatchingOff) {
  const CscMatrix a = small_supernode_forest(30, 8, 12);
  SolverOptions opts;
  opts.factor.exec = Execution::kCpuParallel;
  opts.factor.cpu_workers = 4;
  FactorStats st;
  factor_values(a, opts, &st);
  EXPECT_EQ(st.batches_formed, 0);
  EXPECT_EQ(st.supernodes_batched, 0);
  EXPECT_EQ(st.fused_device_launches, 0u);
  EXPECT_GT(st.scheduler_edges, 0u);  // the plan's chains + readiness
}

TEST(ExecPlan, BatchingCoarsensTheTaskGraph) {
  const CscMatrix a = small_supernode_forest(200, 8, 16);
  auto stats_with = [&](offset_t batch_entries) {
    SolverOptions opts;
    opts.factor.exec = Execution::kCpuParallel;
    opts.factor.cpu_workers = 4;
    opts.factor.batch_entries = batch_entries;
    FactorStats st;
    factor_values(a, opts, &st);
    return st;
  };
  const FactorStats off = stats_with(0);
  const FactorStats on = stats_with(500);
  EXPECT_GT(on.batches_formed, 0);
  EXPECT_LT(on.scheduler_tasks, off.scheduler_tasks / 2);
  EXPECT_LT(on.scheduler_edges, off.scheduler_edges);
}

TEST(ExecPlan, OptionsValidation) {
  const CscMatrix a = grid2d_5pt(8, 8);
  auto try_opts = [&](auto&& mutate) {
    SolverOptions opts;
    mutate(opts.factor);
    CholeskySolver solver(opts);
    solver.factorize(a);
  };
  EXPECT_THROW(try_opts([](FactorOptions& o) { o.cpu_workers = -1; }),
               InvalidArgument);
  EXPECT_THROW(try_opts([](FactorOptions& o) { o.gpu_streams = 0; }),
               InvalidArgument);
  EXPECT_THROW(try_opts([](FactorOptions& o) { o.gpu_streams = -3; }),
               InvalidArgument);
  EXPECT_THROW(try_opts([](FactorOptions& o) { o.gpu_threshold_rl = -1; }),
               InvalidArgument);
  EXPECT_THROW(try_opts([](FactorOptions& o) { o.gpu_threshold_rlb = -1; }),
               InvalidArgument);
  EXPECT_THROW(try_opts([](FactorOptions& o) { o.batch_entries = -1; }),
               InvalidArgument);
  EXPECT_THROW(
      try_opts([](FactorOptions& o) { o.batch_max_supernodes = 0; }),
      InvalidArgument);
  // The defaults (and batching enabled with sane knobs) pass.
  try_opts([](FactorOptions& o) { o.batch_entries = 4096; });
}

TEST(ExecPlan, ModeledBatchingSpeedupOnPflowAnalog) {
  // The acceptance bar: on the PFlow_742_small analog at 8 workers the
  // modeled factorization time improves by >= 1.3x with batching on vs
  // off (one fused call group + one assembly fork per batch instead of
  // per supernode). Modeled time is machine-independent, so this holds
  // on any hardware.
  const DatasetEntry& e = dataset_entry("PFlow_742_small");
  const CscMatrix a = e.make();
  const Permutation fill = compute_ordering(a, OrderingOptions{});
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill);
  auto run = [&](offset_t batch_entries) {
    FactorOptions opts;
    opts.method = Method::kRL;
    opts.exec = Execution::kCpuParallel;
    opts.cpu_workers = 8;
    opts.batch_entries = batch_entries;
    opts.batch_max_supernodes = 16;
    return CholeskyFactor::factorize(a, symb, opts);
  };
  const CholeskyFactor off = run(0);
  const CholeskyFactor on = run(4096);
  EXPECT_GT(on.stats().batches_formed, 0);
  EXPECT_GT(on.stats().supernodes_batched,
            on.stats().total_supernodes / 2);
  const double speedup =
      off.stats().modeled_seconds / on.stats().modeled_seconds;
  EXPECT_GE(speedup, 1.3) << "batching off " << off.stats().modeled_seconds
                          << "s vs on " << on.stats().modeled_seconds
                          << "s";
  // And the factors themselves are bit-for-bit the same.
  const auto voff = off.values();
  const auto von = on.values();
  expect_bitwise_equal({voff.begin(), voff.end()},
                       {von.begin(), von.end()});
}

}  // namespace
}  // namespace spchol
