// Staged parallel symbolic analysis: the pipeline must produce IDENTICAL
// output (supernode partition, permutation, column patterns, blocks,
// update targets) for every worker count, the subtree partitioner must
// produce subtree-closed groups, AnalyzeOptions must validate, and the
// scheduler's partitioned ready queues must complete under forced work
// stealing. Runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "spchol/core/factor.hpp"
#include "spchol/graph/ordering.hpp"
#include "spchol/matrix/generators.hpp"
#include "spchol/support/task_scheduler.hpp"
#include "spchol/symbolic/etree.hpp"
#include "spchol/symbolic/exec_plan.hpp"
#include "spchol/symbolic/symbolic_factor.hpp"

namespace spchol {
namespace {

/// Every structural product of the analysis, compared field by field.
void expect_identical(const SymbolicFactor& a, const SymbolicFactor& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.num_supernodes(), b.num_supernodes());
  EXPECT_EQ(a.permutation().new_to_old(), b.permutation().new_to_old());
  EXPECT_EQ(a.factor_nnz(), b.factor_nnz());
  EXPECT_EQ(a.factor_values(), b.factor_values());
  EXPECT_EQ(a.num_merges(), b.num_merges());
  EXPECT_EQ(a.col_counts(), b.col_counts());
  EXPECT_EQ(a.etree(), b.etree());
  EXPECT_EQ(a.total_blocks(), b.total_blocks());
  EXPECT_EQ(a.flops(), b.flops());
  EXPECT_EQ(a.max_update_entries(), b.max_update_entries());
  for (index_t s = 0; s < a.num_supernodes(); ++s) {
    ASSERT_EQ(a.sn_begin(s), b.sn_begin(s)) << "supernode " << s;
    ASSERT_EQ(a.sn_end(s), b.sn_end(s)) << "supernode " << s;
    EXPECT_EQ(a.sn_parent(s), b.sn_parent(s)) << "supernode " << s;
    const auto ra = a.sn_rows(s), rb = b.sn_rows(s);
    ASSERT_EQ(ra.size(), rb.size()) << "supernode " << s;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      ASSERT_EQ(ra[k], rb[k]) << "supernode " << s << " row " << k;
    }
    const auto ba = a.sn_blocks(s), bb = b.sn_blocks(s);
    ASSERT_EQ(ba.size(), bb.size()) << "supernode " << s;
    for (std::size_t k = 0; k < ba.size(); ++k) {
      EXPECT_EQ(ba[k].first_row, bb[k].first_row);
      EXPECT_EQ(ba[k].nrows, bb[k].nrows);
      EXPECT_EQ(ba[k].target_sn, bb[k].target_sn);
      EXPECT_EQ(ba[k].src_offset, bb[k].src_offset);
    }
    EXPECT_EQ(a.sn_update_targets(s), b.sn_update_targets(s))
        << "supernode " << s;
  }
}

struct ParCase {
  std::string name;
  CscMatrix a;
  AnalyzeOptions opts;
  OrderingMethod ordering;
};

std::vector<ParCase> make_cases() {
  std::vector<ParCase> cases;
  auto add = [&](std::string name, CscMatrix a, double cap, bool pr,
                 SupernodeMode mode, OrderingMethod om) {
    AnalyzeOptions o;
    o.merge_growth_cap = cap;
    o.partition_refinement = pr;
    o.supernode_mode = mode;
    cases.push_back({std::move(name), std::move(a), o, om});
  };
  // All above the staged-path size floor so workers > 1 really fan out.
  add("wide_nd", grid3d_wide(12, 12, 12, 2), 0.25, true,
      SupernodeMode::kMaximal, OrderingMethod::kNestedDissection);
  add("grid3d_md", grid3d_7pt(10, 10, 10), 0.25, true,
      SupernodeMode::kMaximal, OrderingMethod::kMinimumDegree);
  add("grid3d_nomerge", grid3d_7pt(9, 9, 9), 0.0, false,
      SupernodeMode::kFundamental, OrderingMethod::kNestedDissection);
  add("grid2d_rcm", grid2d_5pt(30, 30), 0.25, false,
      SupernodeMode::kMaximal, OrderingMethod::kRcm);
  add("vector_nd", grid3d_vector(7, 7, 7, 3), 0.25, true,
      SupernodeMode::kMaximal, OrderingMethod::kNestedDissection);
  add("random_natural", random_spd(900, 5, 7), 0.1, true,
      SupernodeMode::kFundamental, OrderingMethod::kNatural);
  return cases;
}

const std::vector<ParCase>& cases() {
  static const std::vector<ParCase> c = make_cases();
  return c;
}

class SymbolicParallel : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicParallel, IdenticalAcrossWorkerCounts) {
  const ParCase& c = cases()[GetParam()];
  SCOPED_TRACE(c.name);
  const Permutation fill = compute_ordering(c.a, c.ordering);
  AnalyzeOptions serial = c.opts;
  serial.workers = 1;
  const SymbolicFactor ref = SymbolicFactor::analyze(c.a, fill, serial);
  EXPECT_EQ(ref.stats().tasks_run, 0u);  // serial path: no scheduler
  for (const int workers : {0, 4, 8}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    AnalyzeOptions par = c.opts;
    par.workers = workers;
    const SymbolicFactor sf = SymbolicFactor::analyze(c.a, fill, par);
    expect_identical(ref, sf);
    if (workers > 1) {
      const SymbolicStats& st = sf.stats();
      EXPECT_EQ(st.workers, static_cast<std::size_t>(workers));
      EXPECT_GT(st.tasks_run, 0u);
      EXPECT_GT(st.partitions, 1u);
      EXPECT_GT(st.task_seconds, 0.0);
      EXPECT_GT(st.modeled_parallel_seconds, 0.0);
      EXPECT_LE(st.modeled_parallel_seconds, st.task_seconds * 1.0001);
      EXPECT_GT(st.etree_seconds + st.count_seconds + st.supernode_seconds +
                    st.pattern_seconds,
                0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, SymbolicParallel,
                         ::testing::Range(0, 6), [](const auto& info) {
                           return cases()[info.param].name;
                         });

TEST(SymbolicParallel, NumericFactorsBitwiseIdentical) {
  // A symbolic factor built by the staged pipeline must drive the numeric
  // drivers to the very same bits as one built serially — including RLB,
  // whose scheduled path now splits scatters per target supernode.
  const CscMatrix a = grid3d_wide(12, 12, 12, 2);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  AnalyzeOptions o1, o8;
  o1.workers = 1;
  o8.workers = 8;
  const SymbolicFactor s1 = SymbolicFactor::analyze(a, fill, o1);
  const SymbolicFactor s8 = SymbolicFactor::analyze(a, fill, o8);
  for (const Method method : {Method::kRL, Method::kRLB}) {
    FactorOptions serial;
    serial.method = method;
    serial.exec = Execution::kCpuSerial;
    const CholeskyFactor ref = CholeskyFactor::factorize(a, s1, serial);
    for (const int cw : {2, 4, 8}) {
      FactorOptions par = serial;
      par.exec = Execution::kCpuParallel;
      par.cpu_workers = cw;
      const CholeskyFactor f = CholeskyFactor::factorize(a, s8, par);
      ASSERT_EQ(ref.values().size(), f.values().size());
      EXPECT_EQ(std::memcmp(ref.values().data(), f.values().data(),
                            ref.values().size() * sizeof(double)),
                0)
          << to_string(method) << " with " << cw << " workers";
    }
  }
}

TEST(SymbolicParallel, RlbSplitScattersRunPerTarget) {
  // The RLB scheduled graph has one scatter task per (source, target):
  // task count = batches + unbatched computes + the update-target counts
  // of the unbatched supernodes (a batch absorbs its members' scatters).
  const CscMatrix a = grid3d_7pt(9, 9, 9);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill, {});
  const ExecutionPlan rl = ExecutionPlan::build(symb, {}, {}, {});
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

TEST(SymbolicParallel, OptionValidation) {
  const CscMatrix a = grid2d_5pt(4, 4);
  const Permutation fill = compute_ordering(a, OrderingMethod::kNatural);
  AnalyzeOptions neg_cap;
  neg_cap.merge_growth_cap = -0.25;
  EXPECT_THROW(SymbolicFactor::analyze(a, fill, neg_cap), InvalidArgument);
  AnalyzeOptions nan_cap;
  nan_cap.merge_growth_cap = std::nan("");
  EXPECT_THROW(SymbolicFactor::analyze(a, fill, nan_cap), InvalidArgument);
  AnalyzeOptions neg_workers;
  neg_workers.workers = -2;
  EXPECT_THROW(SymbolicFactor::analyze(a, fill, neg_workers),
               InvalidArgument);
}

TEST(SymbolicParallel, NonSquareErrorReportsDimensions) {
  // 3x2 lower-triangle-ish matrix: diagonal of each column only.
  const CscMatrix a(3, 2, {0, 1, 2}, {0, 1}, {1.0, 1.0});
  try {
    SymbolicFactor::analyze(a, Permutation::identity(2), {});
    FAIL() << "expected analyze to reject a non-square matrix";
  } catch (const Error& e) {
    EXPECT_NE(std::strstr(e.what(), "3x2"), nullptr)
        << "message should name the offending dimensions: " << e.what();
  }
}

TEST(SubtreePartition, GroupsAreSubtreeClosedAndCoverEverything) {
  const CscMatrix a = grid3d_7pt(8, 8, 8);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  const SymbolicFactor sf = SymbolicFactor::analyze(a, fill, {});
  const std::vector<index_t>& parent = sf.etree();
  for (const index_t nparts : {2, 4, 8}) {
    std::vector<char> above;
    const std::vector<index_t> part = subtree_partition(parent, nparts,
                                                        &above);
    ASSERT_EQ(part.size(), parent.size());
    for (std::size_t j = 0; j < parent.size(); ++j) {
      EXPECT_GE(part[j], 0);
      EXPECT_LT(part[j], nparts);
      const index_t p = parent[j];
      if (p < 0) continue;
      // Subtree-closed: a below-cut vertex shares its parent's partition
      // unless the parent is on the spine; the spine is upward-closed.
      if (!above[p]) EXPECT_EQ(part[j], part[p]) << "vertex " << j;
      if (above[j]) EXPECT_TRUE(above[p]) << "vertex " << j;
    }
  }
  // nparts <= 1: everything in partition 0.
  const std::vector<index_t> one = subtree_partition(parent, 1);
  for (const index_t p : one) EXPECT_EQ(p, 0);
}

// --- partitioned ready queues + work stealing ---------------------------

TEST(PartitionedScheduler, StealingDrainsAnUnbalancedQueue) {
  // Every task sits in partition 0 of a 4-partition scheduler: workers
  // whose home queue stays empty must steal to finish the graph.
  TaskScheduler sched;
  sched.set_partitions(4);
  std::atomic<int> runs{0};
  constexpr int kTasks = 64;
  std::vector<std::size_t> ids;
  for (int i = 0; i < kTasks; ++i) {
    ids.push_back(sched.add_task(
        static_cast<std::size_t>(i), [&](std::size_t) { runs++; },
        TaskScheduler::kNoResource, /*partition=*/0));
  }
  for (int i = 1; i < kTasks; ++i) sched.add_edge(ids[i - 1], ids[i]);
  const SchedulerStats st = sched.run(4);
  EXPECT_EQ(runs.load(), kTasks);
  EXPECT_EQ(st.tasks_run, static_cast<std::size_t>(kTasks));
  EXPECT_EQ(st.partitions, 4u);
}

TEST(PartitionedScheduler, StealIsForcedAndCounted) {
  // Two tasks in partition 1 that can only finish if they run
  // CONCURRENTLY on different workers (they spin on each other's flag):
  // with 2 workers, the home-0 worker MUST steal one of them.
  TaskScheduler sched;
  sched.set_partitions(2);
  std::atomic<bool> flag_a{false}, flag_b{false};
  sched.add_task(
      0,
      [&](std::size_t) {
        flag_a.store(true);
        while (!flag_b.load()) std::this_thread::yield();
      },
      TaskScheduler::kNoResource, /*partition=*/1);
  sched.add_task(
      1,
      [&](std::size_t) {
        flag_b.store(true);
        while (!flag_a.load()) std::this_thread::yield();
      },
      TaskScheduler::kNoResource, /*partition=*/1);
  const SchedulerStats st = sched.run(2);
  EXPECT_EQ(st.tasks_run, 2u);
  EXPECT_GE(st.steals, 1u);
  EXPECT_EQ(st.threads_used, 2u);
}

TEST(PartitionedScheduler, CrossPartitionDagStress) {
  // A layered DAG spread over 8 partitions with cross-partition edges:
  // every task must observe all its predecessors complete (acq/rel via
  // the scheduler), and the whole graph must drain under stealing.
  constexpr int kLayers = 20, kWidth = 16;
  TaskScheduler sched;
  sched.set_partitions(8);
  std::vector<std::atomic<int>> done(kLayers * kWidth);
  for (auto& d : done) d.store(0);
  std::vector<std::size_t> ids(kLayers * kWidth);
  std::atomic<int> violations{0};
  for (int l = 0; l < kLayers; ++l) {
    for (int w = 0; w < kWidth; ++w) {
      const int me = l * kWidth + w;
      ids[me] = sched.add_task(
          static_cast<std::size_t>(me),
          [&, l, w, me](std::size_t) {
            if (l > 0) {
              // Predecessors: same column and the two neighbours.
              for (int dw = -1; dw <= 1; ++dw) {
                const int pw = w + dw;
                if (pw < 0 || pw >= kWidth) continue;
                if (done[(l - 1) * kWidth + pw].load() != 1) violations++;
              }
            }
            done[me].store(1);
          },
          TaskScheduler::kNoResource,
          /*partition=*/static_cast<std::size_t>(w % 8));
      if (l > 0) {
        for (int dw = -1; dw <= 1; ++dw) {
          const int pw = w + dw;
          if (pw < 0 || pw >= kWidth) continue;
          sched.add_edge(ids[(l - 1) * kWidth + pw], ids[me]);
        }
      }
    }
  }
  const SchedulerStats st = sched.run(8);
  EXPECT_EQ(st.tasks_run, static_cast<std::size_t>(kLayers * kWidth));
  EXPECT_EQ(violations.load(), 0);
}

TEST(PartitionedScheduler, ModeledMakespanBoundsHold) {
  // A chain replays to the duration sum at any width; a wide independent
  // layer replays to at most the sum and at least the longest task.
  TaskScheduler chain;
  std::vector<std::size_t> ids;
  std::atomic<int> sink{0};
  for (int i = 0; i < 8; ++i) {
    ids.push_back(chain.add_task(static_cast<std::size_t>(i),
                                 [&](std::size_t) { sink++; }));
    if (i > 0) chain.add_edge(ids[i - 1], ids[i]);
  }
  chain.run(4);
  double sum = 0.0, longest = 0.0;
  for (const double d : chain.task_seconds()) {
    sum += d;
    longest = std::max(longest, d);
  }
  const double replay1 = chain.modeled_makespan(1);
  const double replay8 = chain.modeled_makespan(8);
  EXPECT_NEAR(replay1, sum, 1e-12);
  EXPECT_NEAR(replay8, sum, 1e-12);  // a chain cannot go faster
  EXPECT_GE(replay8, longest);

  TaskScheduler wide;
  for (int i = 0; i < 8; ++i) {
    wide.add_task(static_cast<std::size_t>(i), [&](std::size_t) { sink++; });
  }
  wide.run(4);
  double wsum = 0.0, wmax = 0.0;
  for (const double d : wide.task_seconds()) {
    wsum += d;
    wmax = std::max(wmax, d);
  }
  EXPECT_NEAR(wide.modeled_makespan(1), wsum, 1e-12);
  EXPECT_LE(wide.modeled_makespan(8), wsum + 1e-12);
  EXPECT_GE(wide.modeled_makespan(8), wmax - 1e-12);
}

}  // namespace
}  // namespace spchol
