// SolvePlan executor coverage: the scheduled plan-driven triangular
// solve must be bitwise identical to the serial sweep for every
// execution mode / worker / RHS-panel combination (every mode solves on
// the host; coarsened and per-supernode plans), SolveOptions must be
// validated up front, the modeled solve_multi makespan on the nlpkkt80 analog must meet the
// >= 1.5x speedup bar at 8 workers, and SolverSession::solve must stay
// safe (and bitwise deterministic) while the session refactorizes on
// another thread (this file runs under TSan in CI).
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "test_util.hpp"

namespace spchol {
namespace {

/// Deterministic column-major right-hand sides.
std::vector<double> make_rhs(index_t n, index_t nrhs) {
  std::vector<double> b(static_cast<std::size_t>(n) * nrhs);
  for (index_t q = 0; q < nrhs; ++q) {
    for (index_t i = 0; i < n; ++i) {
      b[static_cast<std::size_t>(q) * n + i] =
          1.0 + 0.25 * static_cast<double>(i % 7) -
          0.125 * static_cast<double>((q + i) % 5);
    }
  }
  return b;
}

/// Reference solution from the plain serial sweep.
std::vector<double> serial_solve(const CholeskyFactor& f,
                                 std::span<const double> b, index_t nrhs) {
  std::vector<double> x(b.size());
  f.solve_multi(b, x, nrhs);
  return x;
}

void expect_bitwise_equal(const std::vector<double>& ref,
                          const std::vector<double>& got,
                          const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i], got[i]) << what << " at flat index " << i;
  }
}

CholeskyFactor factor_of(const CscMatrix& a) {
  const Permutation fill = compute_ordering(a, OrderingOptions{});
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill);
  return CholeskyFactor::factorize(a, symb, FactorOptions{});
}

TEST(SolveParallel, BitwiseIdentityAcrossConfigs) {
  // The acceptance grid: every execution mode / worker / panel
  // combination must reproduce the serial sweep bit for bit.
  struct Case {
    const char* name;
    CscMatrix a;
  };
  const Case cases[] = {
      {"grid3d_7pt", grid3d_7pt(8, 8, 8)},
      {"small_supernode_forest", small_supernode_forest(200, 6, 12)},
      // Every supernode above the grain budget: the per-supernode plan.
      {"grid3d_wide", grid3d_wide(7, 7, 7, 2)},
      // A 484-wide root: eight column blocks of the blocked solve.
      {"grid3d_wide_10", grid3d_wide(10, 10, 10, 2)},
  };
  const index_t nrhs = 12;
  for (const Case& c : cases) {
    const CholeskyFactor f = factor_of(c.a);
    const std::vector<double> b = make_rhs(c.a.cols(), nrhs);
    const std::vector<double> ref = serial_solve(f, b, nrhs);
    for (const Execution exec : {Execution::kCpuParallel,
                                 Execution::kGpuHybrid, Execution::kGpuOnly}) {
      for (const int workers : {0, 1, 4, 8}) {
        // 3 is ragged against every micro-tile width.
        for (const index_t panel : {1, 3, 8, 32}) {
          SolveOptions o;
          o.exec = exec;
          o.workers = workers;
          o.rhs_panel = panel;
          // Below the big supernodes' entries; it must change nothing.
          o.gpu_threshold = 500;
          SolveStats st;
          std::vector<double> x(b.size());
          f.solve_multi(b, x, nrhs, o, &st);
          const std::string what =
              std::string(c.name) + " exec=" + to_string(exec) +
              " workers=" + std::to_string(workers) +
              " panel=" + std::to_string(panel);
          expect_bitwise_equal(ref, x, what);
          if (workers == 4 || workers == 8) {
            EXPECT_GT(st.tasks, 0u) << what;
            EXPECT_EQ(st.rhs_panels, (nrhs + panel - 1) / panel) << what;
          }
          if (workers == 1) {
            EXPECT_EQ(st.tasks, 0u) << what;  // serial fallback
          }
        }
      }
    }
  }
}

TEST(SolveParallel, BatchedSolveBitwiseIdentity) {
  // The plan's grain coarsens the solve DAG; results must not change,
  // and the batch counters must show it actually engaged.
  const CscMatrix a = small_supernode_forest(600, 8, 16);
  const CholeskyFactor f = factor_of(a);
  const index_t nrhs = 8;
  const std::vector<double> b = make_rhs(a.cols(), nrhs);
  const std::vector<double> ref = serial_solve(f, b, nrhs);

  SolveOptions o;
  o.workers = 8;
  SolveStats st;
  std::vector<double> x(b.size());
  f.solve_multi(b, x, nrhs, o, &st);
  expect_bitwise_equal(ref, x, "batched solve");
  EXPECT_GT(st.batches_formed, 0);
  EXPECT_GT(st.supernodes_batched, 0);
}

TEST(SolveParallel, SingleRhsSolveMatchesSerial) {
  const CscMatrix a = grid3d_7pt(7, 7, 7);
  const CholeskyFactor f = factor_of(a);
  const std::vector<double> b = make_rhs(a.cols(), 1);
  std::vector<double> ref(b.size());
  f.solve(b, ref);

  SolveOptions o;
  o.workers = 4;
  o.rhs_panel = 1;
  std::vector<double> x(b.size());
  f.solve(b, x, o);
  expect_bitwise_equal(ref, x, "single-rhs scheduled solve");
}

TEST(SolveParallel, SolveOptionsValidation) {
  const CscMatrix a = grid2d_5pt(6, 6);
  const CholeskyFactor f = factor_of(a);
  const std::vector<double> b = make_rhs(a.cols(), 1);
  std::vector<double> x(b.size());
  const auto try_opts = [&](auto mutate) {
    SolveOptions o;
    mutate(o);
    f.solve(b, x, o);
  };
  EXPECT_THROW(try_opts([](SolveOptions& o) { o.workers = -1; }),
               InvalidArgument);
  EXPECT_THROW(try_opts([](SolveOptions& o) { o.rhs_panel = 0; }),
               InvalidArgument);
  EXPECT_THROW(try_opts([](SolveOptions& o) { o.gpu_threshold = -1; }),
               InvalidArgument);
  // The defaults pass.
  try_opts([](SolveOptions&) {});
}

TEST(SolveParallel, SolverFacadeAccumulatesSolveStats) {
  const CscMatrix a = grid3d_7pt(6, 6, 6);
  SolverOptions so;
  so.solve.workers = 4;
  CholeskySolver solver(so);
  solver.factorize(a);
  const std::vector<double> b1 = make_rhs(a.cols(), 1);
  const std::vector<double> b4 = make_rhs(a.cols(), 4);
  (void)solver.solve(b1);
  (void)solver.solve_multi(b4, 4);
  EXPECT_GT(solver.solve_seconds(), 0.0);
  EXPECT_GT(solver.last_solve_stats().tasks, 0u);
  const FactorStats fs = solver.stats();
  EXPECT_EQ(fs.solve_calls, 2u);
  EXPECT_GT(fs.solve_tasks, 0u);
  EXPECT_EQ(fs.solve_seconds, solver.solve_seconds());
  // A refactorize starts a new solve epoch.
  solver.factorize(a);
  EXPECT_EQ(solver.stats().solve_calls, 0u);
  EXPECT_EQ(solver.solve_seconds(), 0.0);
}

TEST(SolveParallel, ModeledMakespanSpeedupOnNlpkkt80Analog) {
  // The acceptance bar: on the nlpkkt80 analog the modeled solve_multi
  // makespan at 8 workers improves by >= 1.5x over the modeled serial
  // replay of the same task set. Modeled time replays MEASURED per-task
  // durations, so allow a few attempts against scheduling noise.
  const DatasetEntry& e = dataset_entry("nlpkkt80");
  const CscMatrix a = e.make();
  const Permutation fill = compute_ordering(a, OrderingOptions{});
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill);
  FactorOptions fo;
  fo.exec = Execution::kCpuParallel;
  fo.cpu_workers = 8;
  const CholeskyFactor f = CholeskyFactor::factorize(a, symb, fo);

  const index_t nrhs = 16;
  const std::vector<double> b = make_rhs(a.cols(), nrhs);
  const std::vector<double> ref = serial_solve(f, b, nrhs);

  SolveOptions o;
  o.workers = 8;
  o.rhs_panel = 4;
  double best = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    SolveStats st;
    std::vector<double> x(b.size());
    f.solve_multi(b, x, nrhs, o, &st);
    expect_bitwise_equal(ref, x, "nlpkkt80 analog scheduled solve");
    ASSERT_GT(st.modeled_parallel_seconds, 0.0);
    best = std::max(
        best, st.modeled_serial_seconds / st.modeled_parallel_seconds);
    if (best >= 1.5) break;
  }
  EXPECT_GE(best, 1.5) << "modeled solve speedup at 8 workers";
}

TEST(SolveParallel, SessionSolveDuringRefactorizeIsSafe) {
  // A session must serve solves (scheduled, on the shared crew) while
  // the same session refactorizes with new values on another thread.
  // Every solve result must be bitwise identical to the serial solve
  // against ONE of the two published factors — never a blend.
  const CscMatrix a0 = grid3d_7pt(6, 6, 6);
  CscMatrix a1 = a0;
  for (double& v : a1.mutable_values()) v *= 1.5;

  ServiceOptions so;
  so.runtime.workers = 4;
  so.solver.solve.workers = 4;
  SolverService service(so);
  const auto s = service.session(a0);

  const index_t nrhs = 4;
  const std::vector<double> b = make_rhs(a0.cols(), nrhs);
  // References from the two published factors' serial sweeps.
  s->factorize(a0);
  const auto f0 = s->factor();
  const std::vector<double> ref0 = serial_solve(*f0, b, nrhs);
  s->factorize(a1);
  const auto f1 = s->factor();
  const std::vector<double> ref1 = serial_solve(*f1, b, nrhs);
  s->factorize(a0);

  constexpr int kSolves = 16;
  std::vector<std::vector<double>> results(kSolves);
  std::latch start(2);
  std::thread solver_thread([&] {
    start.arrive_and_wait();
    for (int i = 0; i < kSolves; ++i) {
      results[i] = s->solve_multi(b, nrhs);
    }
  });
  start.arrive_and_wait();
  for (int i = 0; i < 6; ++i) {
    s->factorize((i % 2 == 0) ? a1 : a0);
  }
  solver_thread.join();

  for (int i = 0; i < kSolves; ++i) {
    const bool is0 = results[i] == ref0;
    const bool is1 = results[i] == ref1;
    EXPECT_TRUE(is0 || is1) << "solve " << i
                            << " matches neither published factor";
  }
  const SessionStats st = s->stats();
  EXPECT_EQ(st.solves, static_cast<std::size_t>(kSolves));
  EXPECT_GT(st.solve_tasks, 0u);
  EXPECT_GT(st.solve_seconds, 0.0);
}

TEST(SolveParallel, WarmSessionReusesCachedSolvePlan) {
  // Two sessions on one pattern share the cached SolvePlan; the second
  // (warm) session still solves bitwise identically to a cold serial
  // CholeskyFactor run.
  const CscMatrix a = grid3d_7pt(6, 6, 6);
  ServiceOptions so;
  so.runtime.workers = 4;
  so.solver.solve.workers = 4;
  SolverService service(so);

  const CholeskyFactor cold = factor_of(a);
  const index_t nrhs = 8;
  const std::vector<double> b = make_rhs(a.cols(), nrhs);
  const std::vector<double> ref = serial_solve(cold, b, nrhs);

  const auto s1 = service.session(a);
  s1->factorize(a);
  expect_bitwise_equal(ref, s1->solve_multi(b, nrhs), "cold session");
  const auto s2 = service.session(a);
  EXPECT_TRUE(s2->stats().symbolic_cached);
  s2->factorize(a);
  expect_bitwise_equal(ref, s2->solve_multi(b, nrhs), "warm session");
}

}  // namespace
}  // namespace spchol
