// Etree task-scheduler coverage: kCpuParallel with real worker threads
// must produce bitwise-identical factors to kCpuSerial across methods,
// matrices, and worker counts; the hybrid overlap path must keep the
// GPU pipeline's determinism; scheduler counters must be populated, and
// the scheduler's one ready queue must hand ready tasks to every idle
// worker.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <latch>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "spchol/matrix/coo.hpp"
#include "spchol/support/task_scheduler.hpp"
#include "spchol/support/worker_crew.hpp"
#include "spchol/symbolic/etree.hpp"
#include "spchol/symbolic/exec_plan.hpp"
#include "test_util.hpp"

namespace spchol {
namespace {

using testing::solve_residual;

std::vector<double> factor_values(const CscMatrix& a, Method m,
                                  Execution e, int workers,
                                  FactorStats* stats = nullptr) {
  SolverOptions opts;
  opts.factor.method = m;
  opts.factor.exec = e;
  opts.factor.cpu_workers = workers;
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

struct Case {
  const char* name;
  CscMatrix (*make)();
};

const Case kCases[] = {
    {"grid2d_25x25", [] { return grid2d_5pt(25, 25); }},
    {"grid3d_6x6x6", [] { return grid3d_7pt(6, 6, 6); }},
    {"vector_4x4x4", [] { return grid3d_vector(4, 4, 4, 3); }},
    {"wide_5x5x5", [] { return grid3d_wide(5, 5, 5, 2); }},
    {"random_200", [] { return random_spd(200, 6, 3); }},
};

class ParallelFactorMethods : public ::testing::TestWithParam<Method> {};

TEST_P(ParallelFactorMethods, BitwiseIdenticalAcrossWorkerCounts) {
  const Method method = GetParam();
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    const CscMatrix a = c.make();
    const auto serial =
        factor_values(a, method, Execution::kCpuSerial, 1);
    for (const int workers : {1, 4, 8}) {
      SCOPED_TRACE(workers);
      const auto parallel =
          factor_values(a, method, Execution::kCpuParallel, workers);
      expect_bitwise_equal(serial, parallel);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ParallelFactorMethods,
                         ::testing::Values(Method::kRL, Method::kRLB,
                                           Method::kLeftLooking),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(TaskScheduler, FourWorkersExecuteTasksConcurrently) {
  // Four tasks rendezvous on a latch: they can only ALL complete if four
  // scheduler workers are inside task bodies at the same time. This is
  // the hardware-independent proof that kCpuParallel runs on ≥ 4 real
  // worker threads (on a single-core CI box a wall-clock assertion would
  // be meaningless, and "which worker popped which task" is OS luck).
  TaskScheduler sched;
  std::latch rendezvous(4);
  std::mutex mu;
  std::set<std::size_t> workers_seen;
  for (int i = 0; i < 4; ++i) {
    sched.add_task(0, [&](std::size_t worker) {
      rendezvous.arrive_and_wait();
      std::lock_guard<std::mutex> lk(mu);
      workers_seen.insert(worker);
    });
  }
  WorkerCrew crew(7);
  const SchedulerStats st = sched.run_on(crew);
  EXPECT_EQ(st.tasks_run, 4u);
  EXPECT_EQ(st.workers, 8u);
  EXPECT_GE(st.threads_used, 4u);
  EXPECT_EQ(workers_seen.size(), 4u);
}

TEST(TaskScheduler, RespectsEdgesAndPriorities) {
  // A fan-in / fan-out diamond executed many times: successors must never
  // run before their predecessors.
  for (int rep = 0; rep < 20; ++rep) {
    TaskScheduler sched;
    std::atomic<int> stage{0};
    const auto a = sched.add_task(0, [&](std::size_t) {
      EXPECT_EQ(stage.load(), 0);
      stage = 1;
    });
    std::vector<std::size_t> mids;
    for (int i = 0; i < 8; ++i) {
      mids.push_back(sched.add_task(1, [&](std::size_t) {
        EXPECT_GE(stage.load(), 1);
      }));
      sched.add_edge(a, mids.back());
    }
    const auto z = sched.add_task(2, [&](std::size_t) {
      EXPECT_EQ(stage.exchange(2), 1);
    });
    for (const auto m : mids) sched.add_edge(m, z);
    WorkerCrew crew(3);
    const SchedulerStats st = sched.run_on(crew);
    EXPECT_EQ(st.tasks_run, 10u);
    EXPECT_EQ(stage.load(), 2);
  }
}

TEST(TaskScheduler, ReportsDependencyCycle) {
  // A cyclic graph must fail loudly, not deadlock the worker crew.
  TaskScheduler sched;
  const auto a = sched.add_task(0, [](std::size_t) {});
  const auto b = sched.add_task(0, [](std::size_t) {});
  sched.add_edge(a, b);
  sched.add_edge(b, a);
  WorkerCrew crew(1);
  EXPECT_THROW(sched.run_on(crew), Error);
}

TEST(TaskScheduler, ResourceTokensBoundConcurrency) {
  // Twelve tasks bound to a 2-token resource: no more than two may ever
  // be in flight at once (the invariant the GPU slot pools rely on so a
  // task's pool acquire() never blocks a worker thread).
  TaskScheduler sched;
  const std::size_t res = sched.add_resource(2);
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 12; ++i) {
    sched.add_task(
        0,
        [&](std::size_t) {
          const int now = active.fetch_add(1) + 1;
          int p = peak.load();
          while (now > p && !peak.compare_exchange_weak(p, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          active.fetch_sub(1);
        },
        res);
  }
  WorkerCrew crew(7);
  const SchedulerStats st = sched.run_on(crew);
  EXPECT_EQ(st.tasks_run, 12u);
  EXPECT_LE(peak.load(), 2);
  // Ten of the twelve initially-ready tasks had to park for a token.
  EXPECT_GE(st.resource_waits, 10u);
}

TEST(TaskScheduler, ResourceTasksInterleaveWithUnboundedOnes) {
  // Tokens throttle only their own resource: free tasks keep flowing.
  TaskScheduler sched;
  const std::size_t res = sched.add_resource(1);
  std::atomic<int> done_free{0};
  std::atomic<int> done_res{0};
  for (int i = 0; i < 6; ++i) {
    sched.add_task(0, [&](std::size_t) { done_res.fetch_add(1); }, res);
    sched.add_task(0, [&](std::size_t) { done_free.fetch_add(1); });
  }
  WorkerCrew crew(3);
  const SchedulerStats st = sched.run_on(crew);
  EXPECT_EQ(st.tasks_run, 12u);
  EXPECT_EQ(done_free.load(), 6);
  EXPECT_EQ(done_res.load(), 6);
}

TEST(TaskScheduler, TasksForkOnTheCrewTheyRunOn) {
  // Scheduler tasks fork their dense kernels on the crew that runs them.
  // Here every other worker is held inside a blocking task while 16
  // tasks fork one after another on the one free thread: each fork must
  // complete with that thread running all of its chunks (the no-deadlock
  // case of caller participation). The caller of run_on is one of the
  // four workers, so whichever thread is free, it is never waited for.
  WorkerCrew crew(3);
  TaskScheduler sched;
  constexpr int kBlockers = 3, kForkers = 16;
  std::latch started(kBlockers);
  std::atomic<bool> release{false};
  std::atomic<int> forks_done{0};
  std::atomic<long> sum{0};
  std::atomic<int> foreign_chunks{0};
  for (int i = 0; i < kBlockers; ++i) {
    sched.add_task(0, [&](std::size_t) {
      started.count_down();
      while (!release.load()) std::this_thread::yield();
    });
  }
  for (int i = 0; i < kForkers; ++i) {
    sched.add_task(1, [&](std::size_t) {
      started.wait();
      const auto me = std::this_thread::get_id();
      parallel_for(crew, 0, 100, 4, [&](index_t lo, index_t hi) {
        if (std::this_thread::get_id() != me) foreign_chunks++;
        long local = 0;
        for (index_t k = lo; k < hi; ++k) local += k;
        sum += local;
      });
      if (forks_done.fetch_add(1) + 1 == kForkers) release.store(true);
    });
  }
  const SchedulerStats st = sched.run_on(crew);
  EXPECT_EQ(st.tasks_run, static_cast<std::size_t>(kBlockers + kForkers));
  EXPECT_EQ(sum.load(), kForkers * (99L * 100 / 2));
  EXPECT_EQ(foreign_chunks.load(), 0);
}

TEST(ParallelFactor, SchedulerCountersPopulated) {
  const CscMatrix a = grid3d_7pt(12, 12, 12);
  SolverOptions opts;
  opts.factor.exec = Execution::kCpuParallel;
  opts.factor.cpu_workers = 8;
  CholeskySolver solver(opts);
  solver.factorize(a);
  const FactorStats st = solver.stats();
  EXPECT_EQ(st.scheduler_workers, 8u);
  // One task per node of the RL plan built for this pattern.
  const ExecutionPlan plan =
      ExecutionPlan::build(solver.factor().symbolic(), {}, {});
  EXPECT_EQ(st.scheduler_tasks, plan.nodes().size());
  EXPECT_GE(st.scheduler_max_ready, 1u);
  // ≥ 1 always; concurrent multi-worker execution is proven determin-
  // istically by TaskScheduler.FourWorkersExecuteTasksConcurrently
  // (on a single-core box one worker may legitimately drain the graph).
  EXPECT_GE(st.scheduler_threads_used, 1u);
}

const std::optional<std::size_t> threads_at_start =
    testing::baseline_threads();

TEST(ParallelFactor, PerCallRunsLeaveNoThreadBehind) {
  // A per-call run builds its one crew (workers − 1 threads) for the DAG
  // and the kernel bands, and joins it before returning.
  if (!threads_at_start) GTEST_SKIP() << "no /proc/self/task";
  const auto before = testing::process_threads();
  EXPECT_EQ(before, threads_at_start);
  const CscMatrix a = grid3d_7pt(12, 12, 12);
  SolverOptions opts;
  opts.factor.exec = Execution::kCpuParallel;
  opts.factor.cpu_workers = 4;
  opts.solve.exec = Execution::kCpuParallel;
  opts.solve.workers = 4;
  CholeskySolver solver(opts);
  solver.factorize(a);
  EXPECT_EQ(solver.stats().scheduler_workers, 4u);
  EXPECT_EQ(testing::process_threads(), before);
  const std::vector<double> b(static_cast<std::size_t>(a.cols()), 1.0);
  std::vector<double> x(b.size());
  SolveStats sst;
  solver.factor().solve(b, x, opts.solve, &sst);
  EXPECT_EQ(sst.workers, 4u);
  EXPECT_GT(sst.tasks, 0u);
  EXPECT_EQ(testing::process_threads(), before);
}

TEST(ParallelFactor, SequentialDriverReportsNoScheduler) {
  const CscMatrix a = grid2d_5pt(10, 10);
  FactorStats st;
  factor_values(a, Method::kRL, Execution::kCpuSerial, 1, &st);
  EXPECT_EQ(st.scheduler_workers, 0u);
  EXPECT_EQ(st.scheduler_tasks, 0u);
}

TEST(ParallelFactor, HybridOverlapKeepsRlDeterminism) {
  // The hybrid task graph orders every target's scatters like the
  // sequential pipeline (ascending per-target chains), so RL hybrid
  // values stay bitwise identical to CPU RL even with concurrent CPU
  // workers and concurrent multi-stream GPU supernodes (the GPU kernels
  // are the same deterministic kernels).
  const CscMatrix a = grid3d_7pt(6, 5, 7);
  SolverOptions base;
  base.factor.method = Method::kRL;
  base.factor.exec = Execution::kCpuSerial;
  CholeskySolver serial(base);
  serial.factorize(a);

  SolverOptions hy;
  hy.factor.method = Method::kRL;
  hy.factor.exec = Execution::kGpuHybrid;
  hy.factor.gpu_threshold_rl = 200;  // force a mixed CPU/GPU split
  hy.factor.cpu_workers = 4;
  CholeskySolver hybrid(hy);
  hybrid.factorize(a);
  EXPECT_GT(hybrid.stats().supernodes_on_gpu, 0);
  EXPECT_LT(hybrid.stats().supernodes_on_gpu,
            hybrid.stats().total_supernodes);

  const auto v1 = serial.factor().values();
  const auto v2 = hybrid.factor().values();
  expect_bitwise_equal({v1.begin(), v1.end()}, {v2.begin(), v2.end()});
}

TEST(ParallelFactor, HybridBitwiseIdenticalAcrossDeviceSizesAndWorkers) {
  // The multi-stream pipeline draws per-task stream/buffer slots from a
  // bounded pool; numeric results must not depend on how many slots exist
  // or how many workers drain the graph: every {device size} x {workers}
  // combo — the default device (one slot per device task, up to four)
  // and one that fits exactly one slot — must be bitwise identical to
  // the single-worker hybrid. For RL the hybrid is additionally bitwise
  // identical to the serial CPU factorization (RLB's device path
  // assembles block products through scratch, a different — but
  // combo-invariant — rounding than the CPU's direct in-place updates).
  const CscMatrix a = grid3d_7pt(6, 5, 7);
  for (const Method method : {Method::kRL, Method::kRLB}) {
    SCOPED_TRACE(to_string(method));
    auto hybrid = [&](int workers, std::size_t device_bytes,
                      std::vector<double>* values = nullptr) {
      SolverOptions opts;
      opts.factor.method = method;
      opts.factor.exec = Execution::kGpuHybrid;
      opts.factor.gpu_threshold_rl = 200;  // force a mixed CPU/GPU split
      opts.factor.gpu_threshold_rlb = 200;
      opts.factor.cpu_workers = workers;
      opts.factor.device.memory_bytes = device_bytes;
      CholeskySolver solver(opts);
      solver.factorize(a);
      EXPECT_GT(solver.stats().supernodes_on_gpu, 0);
      if (values != nullptr) {
        const auto v = solver.factor().values();
        values->assign(v.begin(), v.end());
      }
      return solver.stats();
    };
    std::vector<double> reference;
    hybrid(1, gpu::DeviceConfig{}.memory_bytes, &reference);
    if (method == Method::kRL) {
      expect_bitwise_equal(
          factor_values(a, method, Execution::kCpuSerial, 1), reference);
    }
    for (const int workers : {1, 4, 8}) {
      const std::size_t one_slot = testing::one_slot_capacity(
          [&](std::size_t bytes) { return hybrid(workers, bytes); });
      for (const bool capped : {false, true}) {
        SCOPED_TRACE(std::string(capped ? "one-slot" : "default") +
                     " device, workers=" + std::to_string(workers));
        std::vector<double> values;
        const FactorStats st = hybrid(
            workers, capped ? one_slot : gpu::DeviceConfig{}.memory_bytes,
            &values);
        if (workers > 1) {
          EXPECT_EQ(st.gpu_stream_pairs,
                    capped ? 1 : std::min<index_t>(4, st.supernodes_on_gpu));
        }
        expect_bitwise_equal(reference, values);
      }
    }
  }
}

TEST(ParallelFactor, MultiStreamOverlapsIndependentGpuSupernodes) {
  // A forest of identical dense blocks: every block is one GPU supernode
  // with no update targets, so all device pipelines are independent. The
  // kernels share the device's one compute engine, but with four slots
  // one block's transfers overlap another's kernel on the modeled device
  // timeline, which must beat the one-slot chain on a device that fits
  // only one slot.
  const index_t blocks = 6, bs = 48;
  CooMatrix coo(blocks * bs, blocks * bs);
  for (index_t b = 0; b < blocks; ++b) {
    for (index_t i = 0; i < bs; ++i) {
      coo.add(b * bs + i, b * bs + i, 2.0 * bs);
      for (index_t j = 0; j < i; ++j) coo.add(b * bs + i, b * bs + j, -1.0);
    }
  }
  const CscMatrix a = coo.to_csc();
  auto run = [&](std::size_t device_bytes) {
    SolverOptions opts;
    opts.factor.method = Method::kRL;
    opts.factor.exec = Execution::kGpuHybrid;
    opts.factor.gpu_threshold_rl = 100;  // every block lands on the GPU
    opts.factor.cpu_workers = 8;
    opts.factor.device.memory_bytes = device_bytes;
    CholeskySolver solver(opts);
    solver.factorize(a);
    return solver.stats();
  };
  const FactorStats four = run(gpu::DeviceConfig{}.memory_bytes);
  const FactorStats one = run(testing::one_slot_capacity(run));
  ASSERT_EQ(one.supernodes_on_gpu, blocks);
  EXPECT_EQ(one.gpu_stream_pairs, 1);
  EXPECT_EQ(four.gpu_stream_pairs, 4);
  EXPECT_LT(four.modeled_seconds, 0.9 * one.modeled_seconds);
  // Strictly more cross-stream overlap than the single pair's own
  // compute-vs-copy overlap.
  EXPECT_GT(four.gpu_overlap_seconds, one.gpu_overlap_seconds);
}

TEST(ParallelFactor, HybridTinyDeviceReportsOutOfMemoryNotHang) {
  // When the slot pool cannot fit even ONE panel + update buffer, the
  // DeviceOutOfMemory (with the available-bytes report) must escape
  // instead of the GPU tasks waiting on an empty pool forever.
  const CscMatrix a = grid3d_7pt(6, 5, 7);
  SolverOptions opts;
  opts.factor.method = Method::kRL;
  opts.factor.exec = Execution::kGpuHybrid;
  opts.factor.gpu_threshold_rl = 200;
  opts.factor.cpu_workers = 4;
  opts.factor.device.memory_bytes = 1 << 10;  // fits nothing
  CholeskySolver solver(opts);
  try {
    solver.factorize(a);
    FAIL() << "expected gpu::DeviceOutOfMemory";
  } catch (const gpu::DeviceOutOfMemory& e) {
    EXPECT_EQ(e.capacity(), std::size_t{1} << 10);
    EXPECT_LE(e.available(), e.capacity());
    EXPECT_GT(e.requested(), e.available());
  }
}

TEST(ParallelFactor, HybridSlotPoolDegradesUnderMemoryPressure) {
  // A device that can hold only ~1.5 copies of the largest slot: the
  // ranked pool must shrink below four slots (keeping at least the
  // single-slot pipeline), stay within the cap, and still produce
  // bitwise-identical factors.
  const CscMatrix a = grid3d_7pt(6, 5, 7);
  SolverOptions opts;
  opts.factor.method = Method::kRL;
  opts.factor.exec = Execution::kGpuHybrid;
  opts.factor.gpu_threshold_rl = 200;
  opts.factor.cpu_workers = 4;
  auto run = [&](std::size_t device_bytes) {
    opts.factor.device.memory_bytes = device_bytes;
    CholeskySolver probe(opts);
    probe.factorize(a);
    return probe.stats();
  };
  ASSERT_EQ(run(gpu::DeviceConfig{}.memory_bytes).gpu_stream_pairs, 4);
  const std::size_t slot_bytes = testing::one_slot_capacity(run);
  ASSERT_GT(slot_bytes, 0u);

  opts.factor.device.memory_bytes = slot_bytes + slot_bytes / 2;
  CholeskySolver capped(opts);
  capped.factorize(a);
  EXPECT_GE(capped.stats().gpu_stream_pairs, 1);
  EXPECT_LT(capped.stats().gpu_stream_pairs, 4);
  EXPECT_LE(capped.stats().device_peak_bytes,
            opts.factor.device.memory_bytes);

  const auto serial = factor_values(a, Method::kRL, Execution::kCpuSerial, 1);
  const auto v = capped.factor().values();
  expect_bitwise_equal(serial, {v.begin(), v.end()});
}

TEST(ParallelFactor, HybridOverlapRlbVariantsStayAccurate) {
  const CscMatrix a = grid3d_7pt(7, 7, 7);
  for (const auto v : {RlbVariant::kBatched, RlbVariant::kStreamed}) {
    SolverOptions opts;
    opts.factor.method = Method::kRLB;
    opts.factor.exec = Execution::kGpuHybrid;
    opts.factor.rlb_variant = v;
    opts.factor.gpu_threshold_rlb = 300;
    opts.factor.cpu_workers = 4;
    CholeskySolver solver(opts);
    solver.factorize(a);
    EXPECT_GT(solver.stats().supernodes_on_gpu, 0);
    EXPECT_LT(solve_residual(a, solver.factor()), 1e-13);
  }
}

TEST(ParallelFactor, PathologicalStructuresMatchSerial) {
  // Adversarial shapes: a dense-arrow supernode at the end, a
  // pentadiagonal band (hundreds of tiny supernodes → deep scatter
  // chains), and a disconnected forest (multiple etree roots → wide
  // initial ready queue).
  std::vector<std::pair<const char*, CscMatrix>> cases;
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
  for (const auto& [name, a] : cases) {
    SCOPED_TRACE(name);
    for (const Method m :
         {Method::kRL, Method::kRLB, Method::kLeftLooking}) {
      SCOPED_TRACE(to_string(m));
      const auto serial = factor_values(a, m, Execution::kCpuSerial, 1);
      const auto parallel =
          factor_values(a, m, Execution::kCpuParallel, 8);
      expect_bitwise_equal(serial, parallel);
    }
  }
}

TEST(ParallelFactor, StressRandomFamilyMatchesSerial) {
  for (const std::uint64_t seed : {7u, 21u, 63u}) {
    SCOPED_TRACE(seed);
    const CscMatrix a = random_spd(300, 8, seed);
    for (const Method m : {Method::kRL, Method::kRLB}) {
      const auto serial = factor_values(a, m, Execution::kCpuSerial, 1);
      const auto parallel =
          factor_values(a, m, Execution::kCpuParallel, 8);
      expect_bitwise_equal(serial, parallel);
    }
  }
}

TEST(ParallelFactor, PropagatesNotPositiveDefinite) {
  // The scheduler must cancel cleanly and rethrow the task exception.
  CscMatrix broken = grid2d_5pt(12, 12);
  auto& vals = broken.mutable_values();
  for (index_t j = 0; j < broken.cols(); ++j) {
    const auto rows = broken.col_rows(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (rows[k] == j) vals[broken.colptr()[j] + k] = -1.0;
    }
  }
  SolverOptions opts;
  opts.factor.exec = Execution::kCpuParallel;
  opts.factor.cpu_workers = 8;
  CholeskySolver solver(opts);
  EXPECT_THROW(solver.factorize(broken), NotPositiveDefinite);
}

TEST(ParallelFactor, EtreeChildrenListsAreConsistent) {
  const CscMatrix a = grid3d_7pt(8, 8, 8);
  CholeskySolver solver;
  solver.analyze(a);
  const SymbolicFactor& sf = solver.symbolic();
  index_t children_seen = 0, roots = 0;
  for (index_t s = 0; s < sf.num_supernodes(); ++s) {
    if (sf.sn_parent(s) < 0) roots++;
    index_t prev = -1;
    for (const index_t c : sf.sn_children(s)) {
      EXPECT_EQ(sf.sn_parent(c), s);
      EXPECT_LT(c, s) << "children precede parents in postorder";
      EXPECT_GT(c, prev) << "children lists are ascending";
      prev = c;
      children_seen++;
    }
    // The first update target (if any) is the etree parent.
    const auto targets = sf.sn_update_targets(s);
    if (!targets.empty()) {
      EXPECT_EQ(targets.front(), sf.sn_parent(s));
      for (std::size_t i = 1; i < targets.size(); ++i) {
        EXPECT_GT(targets[i], targets[i - 1]);
      }
    }
  }
  EXPECT_EQ(children_seen + roots, sf.num_supernodes());
  EXPECT_GE(roots, 1);
}

TEST(ParallelFactor, WideStencilRlRlbBitwiseIdenticalToSerial) {
  // A KKT-class wide stencil with a wide root: RL, and RLB with its
  // scatters split per target supernode, must match the serial bits.
  const CscMatrix a = grid3d_wide(12, 12, 12, 2);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill, {});
  for (const Method method : {Method::kRL, Method::kRLB}) {
    FactorOptions serial;
    serial.method = method;
    serial.exec = Execution::kCpuSerial;
    const CholeskyFactor ref = CholeskyFactor::factorize(a, symb, serial);
    for (const int cw : {2, 4, 8}) {
      FactorOptions par = serial;
      par.exec = Execution::kCpuParallel;
      par.cpu_workers = cw;
      const CholeskyFactor f = CholeskyFactor::factorize(a, symb, par);
      ASSERT_EQ(ref.values().size(), f.values().size());
      EXPECT_EQ(std::memcmp(ref.values().data(), f.values().data(),
                            ref.values().size() * sizeof(double)),
                0)
          << to_string(method) << " with " << cw << " workers";
    }
  }
}

// --- the one ready queue ---------------------------------------------------

TEST(TaskScheduler, ReadyTasksRunConcurrently) {
  // Two tasks that can only finish if they run CONCURRENTLY on different
  // workers (each spins on the other's flag), on a crew of one thread +
  // the caller. Either they are ready from the start, or a root task
  // releases them both when it completes: the root sleeps long enough
  // for the other worker to go idle, which then must be woken by the
  // push that readies them, so a lost wake-up hangs this test.
  for (const bool released : {false, true}) {
    TaskScheduler sched;
    std::atomic<bool> flag_a{false}, flag_b{false};
    const std::size_t a = sched.add_task(0, [&](std::size_t) {
      flag_a.store(true);
      while (!flag_b.load()) std::this_thread::yield();
    });
    const std::size_t b = sched.add_task(1, [&](std::size_t) {
      flag_b.store(true);
      while (!flag_a.load()) std::this_thread::yield();
    });
    if (released) {
      const std::size_t root = sched.add_task(2, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      });
      sched.add_edge(root, a);
      sched.add_edge(root, b);
    }
    WorkerCrew crew(1);
    const SchedulerStats st = sched.run_on(crew);
    EXPECT_EQ(st.tasks_run, released ? 3u : 2u);
    EXPECT_EQ(st.threads_used, 2u) << "released = " << released;
  }
}

TEST(TaskScheduler, LayeredDagStress) {
  // A layered DAG on 8 workers, each task depending on three tasks of
  // the layer before: every task must observe all its predecessors
  // complete (acq/rel via the scheduler), and the whole graph must drain.
  constexpr int kLayers = 20, kWidth = 16;
  TaskScheduler sched;
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
          });
      if (l > 0) {
        for (int dw = -1; dw <= 1; ++dw) {
          const int pw = w + dw;
          if (pw < 0 || pw >= kWidth) continue;
          sched.add_edge(ids[(l - 1) * kWidth + pw], ids[me]);
        }
      }
    }
  }
  WorkerCrew crew(7);
  const SchedulerStats st = sched.run_on(crew);
  EXPECT_EQ(st.tasks_run, static_cast<std::size_t>(kLayers * kWidth));
  EXPECT_EQ(violations.load(), 0);
}

TEST(TaskScheduler, ModeledMakespanBoundsHold) {
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
  WorkerCrew crew(3);
  chain.run_on(crew);
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
  wide.run_on(crew);
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
