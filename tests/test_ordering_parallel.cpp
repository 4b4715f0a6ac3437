// Staged parallel ordering: the nested-dissection task DAG must produce
// permutations BITWISE IDENTICAL to the serial path for every worker
// count (including on disconnected and pathological graphs), the
// OrderingOptions must validate with InvalidArgument, the scheduler's
// dynamic spawn() must run and count spawned tasks (and replay their
// spawn edges in modeled_makespan), and the modeled ordering speedup on
// the nlpkkt80 analog must clear 1.5x at 8 workers. Runs under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "spchol/core/solver.hpp"
#include "spchol/graph/ordering.hpp"
#include "spchol/matrix/coo.hpp"
#include "spchol/matrix/generators.hpp"
#include "spchol/support/task_scheduler.hpp"
#include "spchol/support/worker_crew.hpp"

namespace spchol {
namespace {

CscMatrix path_matrix(index_t n) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 4.0);
  for (index_t i = 0; i + 1 < n; ++i) coo.add(i + 1, i, -1.0);
  return coo.to_csc();
}

CscMatrix star_matrix(index_t n) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, static_cast<double>(n));
  for (index_t i = 1; i < n; ++i) coo.add(i, 0, -1.0);
  return coo.to_csc();
}

/// Two paths, an isolated block and isolated vertices: several connected
/// components of very different shapes.
CscMatrix disconnected_matrix(index_t n) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 4.0);
  const index_t third = n / 3;
  for (index_t i = 0; i + 1 < third; ++i) coo.add(i + 1, i, -1.0);
  for (index_t i = third + 2; i + 1 < 2 * third; ++i) coo.add(i + 1, i, -1.0);
  for (index_t i = 2 * third + 1; i + 4 < n; i += 5) {
    coo.add(i + 1, i, -1.0);
    coo.add(i + 2, i, -1.0);
    coo.add(i + 3, i + 1, -1.0);
  }
  return coo.to_csc();
}

struct OrdCase {
  std::string name;
  CscMatrix a;
  OrderingOptions opts;
};

std::vector<OrdCase> make_cases() {
  std::vector<OrdCase> cases;
  auto add = [&](std::string name, CscMatrix a, NdOptions nd = {}) {
    OrderingOptions o;
    o.nd = nd;
    cases.push_back({std::move(name), std::move(a), o});
  };
  // Above the staged-path size floor so workers > 1 really spawn tasks.
  add("grid3d", grid3d_7pt(10, 10, 10));
  add("grid2d", grid2d_5pt(40, 40));
  add("wide_nd", grid3d_wide(12, 12, 12, 2));
  add("vector_nd", grid3d_vector(7, 7, 7, 3));
  add("random", random_spd(1500, 5, 7));
  add("disconnected", disconnected_matrix(1200));
  add("path", path_matrix(1000));
  add("star", star_matrix(700));
  {
    NdOptions nd;
    nd.leaf_size = 16;
    add("leaf16", grid2d_5pt(36, 36), nd);
  }
  {
    NdOptions nd;
    nd.leaf_method = NdLeafMethod::kMinimumDegree;
    add("md_leaves", grid3d_7pt(9, 9, 9), nd);
  }
  return cases;
}

const std::vector<OrdCase>& cases() {
  static const std::vector<OrdCase> c = make_cases();
  return c;
}

class OrderingParallel : public ::testing::TestWithParam<int> {};

TEST_P(OrderingParallel, IdenticalAcrossWorkerCounts) {
  const OrdCase& c = cases()[GetParam()];
  SCOPED_TRACE(c.name);
  OrderingOptions serial = c.opts;
  serial.workers = 1;
  OrderingStats ref_st;
  const Permutation ref = compute_ordering(c.a, serial, &ref_st);
  ASSERT_EQ(ref.size(), c.a.cols());
  EXPECT_EQ(ref_st.tasks_run, 0u);  // serial path: no scheduler
  EXPECT_GT(ref_st.pieces, 0u);
  EXPECT_GE(ref_st.pieces, ref_st.leaves);
  for (const int workers : {0, 4, 8}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    OrderingOptions par = c.opts;
    par.workers = workers;
    OrderingStats st;
    const Permutation p = compute_ordering(c.a, par, &st);
    EXPECT_EQ(ref.new_to_old(), p.new_to_old());
    if (workers > 1) {
      EXPECT_EQ(st.workers, static_cast<std::size_t>(workers));
      EXPECT_GT(st.tasks_run, 0u);
      EXPECT_EQ(st.tasks_run, st.tasks_spawned + 1);  // root + spawned
      EXPECT_EQ(st.tasks_run, st.pieces);
      EXPECT_GT(st.partitions, 1u);
      EXPECT_GT(st.task_seconds, 0.0);
      EXPECT_GT(st.modeled_parallel_seconds, 0.0);
      EXPECT_LE(st.modeled_parallel_seconds, st.task_seconds * 1.0001);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, OrderingParallel,
                         ::testing::Range(0, 10), [](const auto& info) {
                           return cases()[info.param].name;
                         });

TEST(OrderingParallel, PathologicalTinyGraphs) {
  // Below the staged floor these all run serially regardless of workers,
  // but they still must agree for every worker count and stay valid.
  const CscMatrix empty(0, 0, {0}, {}, {});
  const CscMatrix single(1, 1, {0, 1}, {0}, {2.0});
  const CscMatrix tiny_star = star_matrix(9);
  const CscMatrix tiny_path = path_matrix(7);
  for (const CscMatrix* a : {&empty, &single, &tiny_star, &tiny_path}) {
    OrderingOptions serial;
    serial.workers = 1;
    const Permutation ref = compute_ordering(*a, serial);
    ASSERT_EQ(ref.size(), a->cols());
    for (const int workers : {0, 4, 8}) {
      OrderingOptions par;
      par.workers = workers;
      const Permutation p = compute_ordering(*a, par);
      EXPECT_EQ(ref.new_to_old(), p.new_to_old()) << "n=" << a->cols();
    }
  }
}

TEST(OrderingParallel, AllMethodsAgreeAcrossWorkers) {
  const CscMatrix a = grid3d_7pt(9, 9, 9);
  for (const auto m :
       {OrderingMethod::kNatural, OrderingMethod::kRcm,
        OrderingMethod::kNestedDissection, OrderingMethod::kMinimumDegree}) {
    SCOPED_TRACE(to_string(m));
    OrderingOptions serial;
    serial.method = m;
    serial.workers = 1;
    const Permutation ref = compute_ordering(a, serial);
    OrderingOptions par = serial;
    par.workers = 8;
    const Permutation p = compute_ordering(a, par);
    EXPECT_EQ(ref.new_to_old(), p.new_to_old());
  }
}

TEST(OrderingParallel, LegacyOverloadMatchesPipeline) {
  const CscMatrix a = grid2d_5pt(25, 25);
  const Permutation legacy =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  OrderingOptions opts;
  opts.workers = 4;
  const Permutation staged = compute_ordering(a, opts);
  EXPECT_EQ(legacy.new_to_old(), staged.new_to_old());
}

TEST(OrderingParallel, OptionValidation) {
  const CscMatrix a = grid2d_5pt(4, 4);
  {
    OrderingOptions o;
    o.nd.leaf_size = -1;
    EXPECT_THROW(compute_ordering(a, o), InvalidArgument);
  }
  {
    OrderingOptions o;
    o.nd.min_balance = -0.1;
    EXPECT_THROW(compute_ordering(a, o), InvalidArgument);
  }
  {
    OrderingOptions o;
    o.nd.min_balance = 0.75;
    EXPECT_THROW(compute_ordering(a, o), InvalidArgument);
  }
  {
    OrderingOptions o;
    o.nd.min_balance = std::nan("");
    EXPECT_THROW(compute_ordering(a, o), InvalidArgument);
  }
  {
    OrderingOptions o;
    o.workers = -2;
    EXPECT_THROW(compute_ordering(a, o), InvalidArgument);
  }
  // The free nested_dissection entry validates NdOptions too.
  NdOptions bad;
  bad.leaf_size = -5;
  EXPECT_THROW(nested_dissection(Graph::from_sym_lower(a), bad),
               InvalidArgument);
}

TEST(OrderingParallel, SolverSplitsAnalyzeTimersAndStats) {
  const CscMatrix a = grid3d_7pt(10, 10, 10);
  SolverOptions opts;
  opts.ordering_opts.workers = 4;
  CholeskySolver solver(opts);
  solver.analyze(a);
  EXPECT_GT(solver.ordering_seconds(), 0.0);
  EXPECT_GT(solver.symbolic_seconds(), 0.0);
  EXPECT_GE(solver.analyze_seconds() * 1.0001,
            solver.ordering_seconds() + solver.symbolic_seconds());
  EXPECT_GT(solver.ordering_stats().total_seconds, 0.0);
  EXPECT_GT(solver.ordering_stats().pieces, 0u);
  solver.factorize(a);
  // OrderingStats flow into the pipeline-wide FactorStats.
  EXPECT_EQ(solver.stats().ordering.pieces, solver.ordering_stats().pieces);
  EXPECT_GT(solver.stats().ordering.total_seconds, 0.0);
  EXPECT_GT(solver.stats().symbolic.total_seconds, 0.0);
}

TEST(OrderingParallel, ModeledSpeedupOnNlpkkt80Analog) {
  // The acceptance bar: modeled ordering speedup > 1.5x at 8 workers on
  // the nlpkkt80 analog (grid3d_wide 20^3 range-2, the dataset's
  // heaviest-analysis matrix). Modeled time replays measured task
  // durations through the scheduler's list schedule, so the ratio
  // depends on the DAG shape rather than this machine's core count;
  // retry a few times to ride out timer noise on loaded CI boxes.
  const CscMatrix a = grid3d_wide(20, 20, 20, 2);
  double best = 0.0;
  for (int attempt = 0; attempt < 3 && best <= 1.5; ++attempt) {
    OrderingOptions opts;
    opts.workers = 8;
    OrderingStats st;
    compute_ordering(a, opts, &st);
    ASSERT_GT(st.modeled_parallel_seconds, 0.0);
    best = std::max(best, st.task_seconds / st.modeled_parallel_seconds);
  }
  EXPECT_GT(best, 1.5);
}

// --- dynamic task spawning on the shared scheduler ----------------------

TEST(SchedulerSpawn, SpawnedTasksRunAndAreCounted) {
  TaskScheduler sched;
  sched.set_partitions(4);
  std::atomic<int> runs{0};
  sched.add_task(0, [&](std::size_t worker) {
    runs++;
    for (int i = 0; i < 10; ++i) {
      sched.spawn(worker, 1, [&, i](std::size_t inner_worker) {
        runs++;
        sched.spawn(inner_worker, 2, [&](std::size_t) { runs++; },
                    static_cast<std::size_t>(i) % 4);
      });
    }
  });
  WorkerCrew crew(3);
  const SchedulerStats st = sched.run_on(crew);
  EXPECT_EQ(runs.load(), 21);
  EXPECT_EQ(st.tasks_run, 21u);
  EXPECT_EQ(st.tasks_spawned, 20u);
  EXPECT_EQ(sched.num_tasks(), 21u);
  EXPECT_EQ(sched.task_seconds().size(), 21u);
}

TEST(SchedulerSpawn, ModeledMakespanReplaysSpawnEdges) {
  using namespace std::chrono_literals;
  TaskScheduler sched;
  std::size_t root_id = 0;
  std::vector<std::size_t> kids;
  std::mutex mu;
  root_id = sched.add_task(0, [&](std::size_t worker) {
    std::this_thread::sleep_for(2ms);
    for (int i = 0; i < 4; ++i) {
      const std::size_t id = sched.spawn(worker, 1, [](std::size_t) {
        std::this_thread::sleep_for(1ms);
      });
      std::lock_guard<std::mutex> lk(mu);
      kids.push_back(id);
    }
  });
  WorkerCrew crew(3);
  sched.run_on(crew);
  const auto& dur = sched.task_seconds();
  double kid_sum = 0.0, kid_max = 0.0, total = 0.0;
  for (const double d : dur) total += d;
  for (const std::size_t id : kids) {
    kid_sum += dur[id];
    kid_max = std::max(kid_max, dur[id]);
  }
  // One worker: everything serializes to the duration sum. Many workers:
  // the children cannot start before the spawner completes, so the
  // makespan is at least root + the longest child, and at most the sum.
  EXPECT_NEAR(sched.modeled_makespan(1), total, 1e-12);
  EXPECT_GE(sched.modeled_makespan(8), dur[root_id] + kid_max - 1e-12);
  EXPECT_LE(sched.modeled_makespan(8), total + 1e-12);
  EXPECT_LT(sched.modeled_makespan(8), dur[root_id] + kid_sum - 1e-6);
}

TEST(SchedulerSpawn, SpawnedTasksRespectPartitionQueues) {
  // A spawn storm across all partitions must drain with stealing active
  // and without losing tasks (the ND recursion's shape, abstracted).
  TaskScheduler sched;
  sched.set_partitions(8);
  std::atomic<int> runs{0};
  std::function<void(std::size_t, int)> recurse =
      [&](std::size_t worker, int depth) {
        runs++;
        if (depth == 0) return;
        for (int c = 0; c < 2; ++c) {
          sched.spawn(
              worker, static_cast<std::size_t>(depth),
              [&recurse, depth](std::size_t w) { recurse(w, depth - 1); },
              static_cast<std::size_t>(runs.load() + c) % 8);
        }
      };
  sched.add_task(0, [&](std::size_t w) { recurse(w, 6); });
  WorkerCrew crew(7);
  const SchedulerStats st = sched.run_on(crew);
  EXPECT_EQ(runs.load(), (1 << 7) - 1);  // a full binary tree of depth 6
  EXPECT_EQ(st.tasks_run, static_cast<std::size_t>((1 << 7) - 1));
  EXPECT_EQ(st.tasks_spawned, static_cast<std::size_t>((1 << 7) - 2));
}

}  // namespace
}  // namespace spchol
