// ExecutionPlan coverage: the derived task grain (batch-packing
// invariants, PFlow_742_small task counts, the KKT stencil left
// uncoarsened), coarsened-vs-serial bitwise identity across
// worker/stream counts on the PFlow_742_small analog and the
// pathological graphs, FactorOptions validation, the batch stats
// counters (including fused device launches), the >= 1.3x modeled
// coarsening speedup acceptance bar, RLB's one SCATTER task per
// (source, target) pair, and the RL slot capacities sized from the tasks
// that can be in flight together.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "spchol/core/plan_executor.hpp"
#include "spchol/matrix/coo.hpp"
#include "spchol/symbolic/exec_plan.hpp"
#include "spchol/symbolic/solve_plan.hpp"
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

  const ExecutionPlan plan = ExecutionPlan::build(symb, {}, {});
  EXPECT_GT(plan.batches_formed(), 0);
  EXPECT_GT(plan.supernodes_batched(), 0);

  index_t batched_seen = 0;
  for (const PlanNode& n : plan.nodes()) {
    if (n.kind != PlanNodeKind::kBatch) continue;
    ASSERT_GE(n.batch_first, 0);
    ASSERT_LE(n.batch_last, symb.num_supernodes() - 1);
    const index_t members = n.batch_last - n.batch_first + 1;
    EXPECT_GE(members, 2);
    batched_seen += members;
    offset_t work = 0;
    for (index_t s = n.batch_first; s <= n.batch_last; ++s) {
      work += symb.sn_entries(s);
    }
    EXPECT_LT(work, 4096);  // the grain rule's budget
    for (index_t s = n.batch_first; s <= n.batch_last; ++s) {
      EXPECT_TRUE(plan.batched(s));
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
  // its batches must be device-eligible sibling-leaf packs. 80 leaves of
  // 72 entries put the whole tree above the grain budget, so the root
  // stays out of every batch.
  const CscMatrix a = small_supernode_forest(80, 8, 12);
  const Permutation fill = compute_ordering(a, OrderingMethod::kNatural);
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill);
  const ExecutionPlan plan = ExecutionPlan::build(symb, {}, {});
  index_t batches = 0;
  for (const PlanNode& n : plan.nodes()) {
    if (n.kind != PlanNodeKind::kBatch) continue;
    batches++;
    EXPECT_TRUE(n.device_eligible);
  }
  EXPECT_GT(batches, 0);
}

TEST(ExecPlan, BatchedBitwiseIdenticalAcrossWorkersAndDeviceSizes) {
  const std::size_t full = gpu::DeviceConfig{}.memory_bytes;
  for (const auto& [name, a] : batching_cases()) {
    SCOPED_TRACE(name);
    for (const Method method : {Method::kRL, Method::kRLB}) {
      SCOPED_TRACE(to_string(method));
      auto values = [&](Execution exec, int workers, std::size_t bytes,
                        FactorStats* st = nullptr) {
        SolverOptions opts;
        opts.factor.method = method;
        opts.factor.exec = exec;
        opts.factor.cpu_workers = workers;
        opts.factor.device.memory_bytes = bytes;
        opts.factor.gpu_threshold_rl = 600;  // force a mixed CPU/GPU split
        opts.factor.gpu_threshold_rlb = 600;
        return factor_values(a, opts, st);
      };
      // The plan coarsens every case; the serial driver runs no plan.
      const std::vector<double> ref = values(Execution::kCpuSerial, 1, full);
      FactorStats st;
      values(Execution::kCpuParallel, 4, full, &st);
      EXPECT_GT(st.batches_formed, 0);
      // Pure CPU scheduling: the coarsened plan must not change a single
      // bit at any worker count (0 = hardware concurrency).
      for (const int workers : {0, 1, 4, 8}) {
        SCOPED_TRACE("cpu workers=" + std::to_string(workers));
        expect_bitwise_equal(ref,
                             values(Execution::kCpuParallel, workers, full));
      }
      // Hybrid: nor for any worker count, on the default device or on
      // one that fits exactly one slot.
      for (const int workers : {0, 1, 4, 8}) {
        const std::size_t one_slot =
            testing::one_slot_capacity([&](std::size_t bytes) {
              values(Execution::kGpuHybrid, workers, bytes, &st);
              return st;
            });
        for (const std::size_t bytes : {full, one_slot}) {
          SCOPED_TRACE("hybrid workers=" + std::to_string(workers) +
                       " device bytes=" + std::to_string(bytes));
          expect_bitwise_equal(
              ref, values(Execution::kGpuHybrid, workers, bytes, &st));
          if (bytes == one_slot) {
            EXPECT_LE(st.gpu_stream_pairs, 1);
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
  // Each leaf is 16 x 17 = 272 entries (CPU-bound alone); a batch of
  // fifteen crosses the 2000-entry threshold as a unit.
  opts.factor.gpu_threshold_rl = 2000;
  FactorStats st;
  const auto batched = factor_values(a, opts, &st);
  EXPECT_GT(st.batches_formed, 0);
  EXPECT_GT(st.supernodes_batched, 0);
  EXPECT_GT(st.fused_device_launches, 0u);
  EXPECT_GT(st.supernodes_on_gpu, 0);
  expect_bitwise_equal(reference, batched);
}

TEST(ExecPlan, BatchCountersZeroWhenBatchingOff) {
  // A pattern the grain rule leaves uncoarsened: the KKT wide stencil's
  // supernodes are all above the grain budget.
  const CscMatrix a = grid3d_wide(7, 7, 7, 2);
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
  SolverOptions opts;
  opts.factor.exec = Execution::kCpuParallel;
  opts.factor.cpu_workers = 4;
  CholeskySolver solver(opts);
  solver.factorize(a);
  const FactorStats st = solver.stats();
  const SymbolicFactor& symb = solver.factor().symbolic();
  const ExecutionPlan plan = ExecutionPlan::build(symb, {}, {});
  // The RL graph with one task per supernode: a COMPUTE per supernode,
  // a SCATTER per supernode with ancestors, and per target one chain
  // edge per contributor (the last into the target's COMPUTE).
  std::size_t per_sn_nodes = 0, per_sn_edges = 0;
  for (index_t s = 0; s < symb.num_supernodes(); ++s) {
    per_sn_nodes += symb.sn_below(s) > 0 ? 2 : 1;
    per_sn_edges += symb.sn_below(s) > 0 ? 1 : 0;
    per_sn_edges += symb.sn_update_targets(s).size();
  }
  EXPECT_GT(st.batches_formed, 0);
  EXPECT_EQ(st.batches_formed, plan.batches_formed());
  EXPECT_EQ(st.supernodes_batched, plan.supernodes_batched());
  EXPECT_EQ(st.scheduler_tasks, plan.nodes().size());
  EXPECT_LT(plan.nodes().size(), per_sn_nodes / 2);
  EXPECT_LT(plan.edges().size(), per_sn_edges);
}

TEST(ExecPlan, GrainIsDerivedFromThePattern) {
  // PFlow_742_small: 2,365 supernodes plan to at most 160 factor tasks
  // and 320 solve tasks (forward + backward nodes of the SolvePlan).
  const CscMatrix a = dataset_entry("PFlow_742_small").make();
  const SymbolicFactor symb =
      SymbolicFactor::analyze(a, compute_ordering(a, OrderingOptions{}));
  ASSERT_EQ(symb.num_supernodes(), 2365);
  const ExecutionPlan plan = ExecutionPlan::build(symb, {}, {});
  EXPECT_LE(plan.nodes().size(), 160u);
  const SolvePlan splan = SolvePlan::build(symb, {});
  std::size_t fwd = splan.nodes().size(), bwd = 0;
  for (const SolveNode& n : splan.nodes()) {
    if (n.kind != SolveNodeKind::kScatter) bwd++;
  }
  EXPECT_LE(fwd + bwd, 320u);
}

TEST(ExecPlan, KktStencilKeepsOneComputePerSupernode) {
  // The warm_kkt pattern: every supernode is far above the grain budget,
  // so the plan is the per-supernode graph.
  const CscMatrix a = grid3d_wide(15, 15, 15, 2);
  const SymbolicFactor symb =
      SymbolicFactor::analyze(a, compute_ordering(a, OrderingOptions{}));
  const ExecutionPlan plan = ExecutionPlan::build(symb, {}, {});
  EXPECT_EQ(plan.batches_formed(), 0);
  std::size_t computes = 0;
  for (const PlanNode& n : plan.nodes()) {
    EXPECT_NE(n.kind, PlanNodeKind::kBatch);
    if (n.kind == PlanNodeKind::kCompute) computes++;
  }
  EXPECT_EQ(computes, static_cast<std::size_t>(symb.num_supernodes()));
  const SolvePlan splan = SolvePlan::build(symb, {});
  EXPECT_EQ(splan.batches_formed(), 0);
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
  EXPECT_THROW(try_opts([](FactorOptions& o) { o.gpu_threshold_rl = -1; }),
               InvalidArgument);
  EXPECT_THROW(try_opts([](FactorOptions& o) { o.gpu_threshold_rlb = -1; }),
               InvalidArgument);
  // The defaults pass.
  try_opts([](FactorOptions&) {});
}

TEST(ExecPlan, ModeledBatchingSpeedupOnPflowAnalog) {
  // The acceptance bar: on the PFlow_742_small analog at 8 workers the
  // coarsened plan's modeled factorization time is >= 1.3x below the
  // per-supernode charge (one fused call group + one assembly fork per
  // batch instead of per supernode). The sequential driver (1 worker)
  // runs no plan and charges every supernode on its own — exactly the
  // modeled time of an uncoarsened 8-worker plan. Modeled time is
  // machine-independent, so this holds on any hardware.
  const DatasetEntry& e = dataset_entry("PFlow_742_small");
  const CscMatrix a = e.make();
  const Permutation fill = compute_ordering(a, OrderingOptions{});
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill);
  auto run = [&](int workers) {
    FactorOptions opts;
    opts.method = Method::kRL;
    opts.exec = Execution::kCpuParallel;
    opts.cpu_workers = workers;
    return CholeskyFactor::factorize(a, symb, opts);
  };
  const CholeskyFactor off = run(1);
  const CholeskyFactor on = run(8);
  EXPECT_EQ(off.stats().batches_formed, 0);
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

TEST(ExecPlan, RlbSplitScattersRunPerTarget) {
  // The RLB scheduled graph has one scatter task per (source, target):
  // task count = batches + unbatched computes + the update-target counts
  // of the unbatched supernodes (a batch absorbs its members' scatters).
  const CscMatrix a = grid3d_7pt(9, 9, 9);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill, {});
  const ExecutionPlan rl = ExecutionPlan::build(symb, {}, {});
  std::size_t expect = static_cast<std::size_t>(rl.batches_formed());
  // The same graph with one SCATTER per source instead of per target.
  std::size_t per_source = expect;
  for (index_t s = 0; s < symb.num_supernodes(); ++s) {
    if (rl.batched(s)) continue;
    expect += 1 + symb.sn_update_targets(s).size();
    per_source += symb.sn_below(s) > 0 ? 2 : 1;
  }
  FactorOptions par;
  par.method = Method::kRLB;
  par.exec = Execution::kCpuParallel;
  par.cpu_workers = 4;
  const CholeskyFactor f = CholeskyFactor::factorize(a, symb, par);
  EXPECT_EQ(f.stats().scheduler_tasks, expect);
  // More tasks than one SCATTER per source would give.
  EXPECT_GT(f.stats().scheduler_tasks, per_source);
}

/// Whether supernode x lies in the subtree of y (y itself included).
bool in_subtree(const SymbolicFactor& symb, index_t x, index_t y) {
  for (; x >= 0; x = symb.sn_parent(x)) {
    if (x == y) return true;
  }
  return false;
}

TEST(ExecPlan, ConcurrentSlotCapsMatchBruteForce) {
  // Brute-force oracle for detail::concurrent_slot_caps on up to 12 plan
  // tasks (COMPUTE nodes and BATCH runs) with pseudo-random needs: rank
  // the tasks by a + b descending (ties keep their order); a task raises
  // slot k's capacity iff k earlier tasks, pairwise concurrent with each
  // other and with it, exist (largest such set found by enumeration).
  // Two tasks are concurrent iff no supernode of one lies in the subtree
  // of a supernode of the other.
  std::vector<std::pair<const char*, CscMatrix>> cases;
  cases.emplace_back("grid2d", grid2d_5pt(14, 14));
  cases.emplace_back("grid3d", grid3d_7pt(8, 8, 8));
  cases.emplace_back("forest", small_supernode_forest(60, 8, 12));
  std::ptrdiff_t batch_runs = 0;
  for (const auto& [name, a] : cases) {
    SCOPED_TRACE(name);
    const SymbolicFactor symb =
        SymbolicFactor::analyze(a, compute_ordering(a, OrderingOptions{}));
    // Every third supernode on the device: those stay COMPUTE nodes, the
    // others may pack into BATCH runs between them.
    std::vector<char> on_gpu(static_cast<std::size_t>(symb.num_supernodes()));
    for (std::size_t s = 0; s < on_gpu.size(); ++s) on_gpu[s] = s % 3 == 0;
    const ExecutionPlan plan = ExecutionPlan::build(symb, on_gpu, {});
    std::vector<detail::SlotNeed> all;
    for (const PlanNode& n : plan.nodes()) {
      if (n.kind == PlanNodeKind::kCompute) all.push_back({0, 0, n.sn, n.sn});
      if (n.kind == PlanNodeKind::kBatch) {
        all.push_back({0, 0, n.batch_first, n.batch_last});
      }
    }
    const std::size_t stride = std::max<std::size_t>(1, all.size() / 12);
    std::vector<detail::SlotNeed> needs;
    std::uint64_t x = 12345;
    for (std::size_t i = 0; i < all.size() && needs.size() < 12;
         i += stride) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      detail::SlotNeed n = all[i];
      n.a = (x >> 33) % 50;
      n.b = (x >> 13) % 50;
      needs.push_back(n);
    }
    const std::size_t t = needs.size();
    ASSERT_GE(t, 8u);
    batch_runs += std::count_if(needs.begin(), needs.end(),
                                [](const detail::SlotNeed& n) {
                                  return n.first < n.last;
                                });
    auto concurrent = [&](std::size_t i, std::size_t j) {
      for (index_t u = needs[i].first; u <= needs[i].last; ++u) {
        for (index_t v = needs[j].first; v <= needs[j].last; ++v) {
          if (in_subtree(symb, u, v) || in_subtree(symb, v, u)) return false;
        }
      }
      return true;
    };
    std::vector<std::size_t> order(t);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t i, std::size_t j) {
                       return needs[i].a + needs[i].b >
                              needs[j].a + needs[j].b;
                     });
    std::vector<std::size_t> beside(t, 0);  // by rank position
    for (std::size_t p = 0; p < t; ++p) {
      std::vector<std::size_t> cand;
      for (std::size_t q = 0; q < p; ++q) {
        if (concurrent(order[p], order[q])) cand.push_back(order[q]);
      }
      for (std::uint32_t m = 0; m < (1u << cand.size()); ++m) {
        std::vector<std::size_t> set;
        for (std::size_t c = 0; c < cand.size(); ++c) {
          if (m >> c & 1u) set.push_back(cand[c]);
        }
        bool antichain = true;
        for (std::size_t i = 0; antichain && i < set.size(); ++i) {
          for (std::size_t j = i + 1; antichain && j < set.size(); ++j) {
            antichain = concurrent(set[i], set[j]);
          }
        }
        if (antichain) beside[p] = std::max(beside[p], set.size());
      }
    }
    for (const std::size_t slots : {1u, 2u, 3u, 4u}) {
      std::vector<std::pair<std::size_t, std::size_t>> want(slots);
      for (std::size_t p = 0; p < t; ++p) {
        const detail::SlotNeed& n = needs[order[p]];
        for (std::size_t k = 0; k <= std::min(beside[p], slots - 1); ++k) {
          want[k].first = std::max(want[k].first, n.a);
          want[k].second = std::max(want[k].second, n.b);
        }
      }
      EXPECT_EQ(detail::concurrent_slot_caps(symb, needs, slots), want)
          << slots << " slots";
    }
  }
  EXPECT_GT(batch_runs, 0);  // multi-supernode spans were covered
}

}  // namespace
}  // namespace spchol
