// Amortized request latency through SolverService, warm vs cold
// symbolic cache — the solver-as-a-service payoff measurement.
//
// Workload: a stream of refactorize+solve requests on one sparsity
// pattern whose values change every request (the timestep-update shape).
// The cold column re-runs the whole per-call pipeline every request
// (ordering + symbolic analysis + factorize + solve, a fresh
// CholeskySolver each time: what a stateless server would pay). The warm
// column opens a SolverService session per request: after the first
// request the pattern cache serves the symbolic factor and execution
// plan and the plan's slot pool, and only the numeric
// factorization and solve run.
//
// Matrices: the nlpkkt80 analog (few huge supernodes — symbolic cost is
// a moderate fraction) and PFlow_742_small (thousands of tiny supernodes
// — ordering + analysis DOMINATE per-request latency, the regime the
// cache exists for).
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "spchol/support/timer.hpp"

namespace spchol::bench {
namespace {

constexpr int kRequests = 6;

struct Column {
  double first = 0.0;      ///< first-request latency (cold either way)
  double amortized = 0.0;  ///< mean latency of the remaining requests
};

/// Nudges the values so every request factors a genuinely new matrix
/// (same pattern), like a timestep update.
void perturb(CscMatrix& a, int request) {
  const double scale = 1.0 + 1e-3 * request;
  for (double& v : a.mutable_values()) v *= scale;
}

Column run_cold(const CscMatrix& a0, const SolverOptions& so,
                const std::vector<double>& b) {
  Column col;
  CscMatrix a = a0;
  for (int r = 0; r < kRequests; ++r) {
    perturb(a, r);
    const WallTimer t;
    CholeskySolver solver(so);
    solver.factorize(a);
    (void)solver.solve(b);
    const double s = t.seconds();
    if (r == 0) {
      col.first = s;
    } else {
      col.amortized += s / (kRequests - 1);
    }
  }
  return col;
}

Column run_warm(const CscMatrix& a0, const ServiceOptions& so,
                const std::vector<double>& b, ServiceStats* stats) {
  Column col;
  SolverService service(so);
  CscMatrix a = a0;
  for (int r = 0; r < kRequests; ++r) {
    perturb(a, r);
    const WallTimer t;
    const auto session = service.session(a);
    session->factorize(a);
    (void)session->solve(b);
    const double s = t.seconds();
    if (r == 0) {
      col.first = s;
    } else {
      col.amortized += s / (kRequests - 1);
    }
  }
  *stats = service.stats();
  return col;
}

/// Amortized solve latency per RHS column: a warm session answering one
/// scheduled solve_multi over a block of right-hand sides, against the
/// per-column baseline (nrhs independent serial solves on the same
/// factor — what a caller without the plan-driven executor pays). The
/// modeled column replays the measured task durations through the greedy
/// list schedule at 1 vs the scheduler's worker count, the same
/// machine-independent speedup convention the factorization benches use.
void run_solve_amortized(JsonReport& report) {
  constexpr index_t kNrhs = 32;
  std::printf("\nAmortized solve latency per RHS column: warm scheduled "
              "solve_multi vs per-column serial solves (%d columns)\n\n",
              static_cast<int>(kNrhs));
  std::printf("%-18s %14s %14s %9s %9s %9s\n", "matrix", "serial/col",
              "multi/col", "speedup", "modeled", "tasks");
  print_rule();

  for (const char* name : {"nlpkkt80", "PFlow_742_small"}) {
    const DatasetEntry& entry = dataset_entry(name);
    const CscMatrix a = entry.make();
    const index_t n = a.cols();

    ServiceOptions svc;
    svc.solver.factor.cpu_workers = 4;
    svc.solver.factor.exec = Execution::kCpuParallel;
    svc.solver.solve.workers = 4;
    svc.solver.solve.rhs_panel = 8;
    svc.runtime.workers = 3;  // crew + the requesting thread = 4
    SolverService service(svc);
    const auto session = service.session(a);
    session->factorize(a);

    std::vector<double> b(static_cast<std::size_t>(n) * kNrhs);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = 1.0 + 1e-3 * static_cast<double>(i % 97);
    }

    // Per-column baseline: nrhs serial sweeps on the published factor.
    const auto factor = session->factor();
    std::vector<double> xcol(static_cast<std::size_t>(n));
    const WallTimer serial_t;
    for (index_t q = 0; q < kNrhs; ++q) {
      const std::span<const double> bq(b.data() +
                                           static_cast<std::size_t>(q) * n,
                                       static_cast<std::size_t>(n));
      factor->solve(bq, xcol);
    }
    const double serial_per_col = serial_t.seconds() / kNrhs;

    // Warm scheduled block solve (plan cached at session creation).
    const WallTimer multi_t;
    (void)session->solve_multi(b, kNrhs);
    const double multi_per_col = multi_t.seconds() / kNrhs;

    const SolveStats st = session->stats().last_solve;
    const double modeled = st.modeled_parallel_seconds > 0.0
                               ? st.modeled_serial_seconds /
                                     st.modeled_parallel_seconds
                               : 1.0;
    std::printf("%-18s %11.3f ms %11.3f ms %8.2fx %8.2fx %9zu\n", name,
                serial_per_col * 1e3, multi_per_col * 1e3,
                serial_per_col / multi_per_col, modeled, st.tasks);
    report.row("solve_amortized", name,
               {{"serial_per_col_seconds", serial_per_col},
                {"multi_per_col_seconds", multi_per_col},
                {"speedup", serial_per_col / multi_per_col},
                {"modeled_speedup", modeled}});
  }
  std::printf("\nserial/col = mean of %d independent serial solves; "
              "multi/col = one scheduled solve_multi / %d;\nmodeled = "
              "measured task durations replayed at 1 vs %d workers "
              "(machine-independent).\n",
              static_cast<int>(kNrhs), static_cast<int>(kNrhs), 4);
}

void run(JsonReport& report) {
  std::printf("SolverService amortized request latency, warm vs cold "
              "symbolic cache\n");
  std::printf("%d requests per matrix; values change every request, the "
              "pattern never does\n\n",
              kRequests);
  std::printf("%-18s %12s %12s %12s %12s %9s\n", "matrix", "cold-first",
              "cold-amort", "warm-first", "warm-amort", "speedup");
  print_rule();

  for (const char* name : {"nlpkkt80", "PFlow_742_small"}) {
    const DatasetEntry& entry = dataset_entry(name);
    const CscMatrix a = entry.make();
    const std::vector<double> b(static_cast<std::size_t>(a.cols()), 1.0);

    SolverOptions so;
    so.factor = gpu_options(Method::kRL, RlbVariant::kStreamed);
    // Explicit worker count: the scheduled hybrid driver (and with it
    // the plan + slot-pool reuse being measured) engages at workers > 1
    // regardless of the measuring machine's core count.
    so.factor.cpu_workers = 4;
    ServiceOptions svc;
    svc.solver = so;
    svc.runtime.device = so.factor.device;
    svc.runtime.workers = 3;  // crew + the requesting thread = 4

    const Column cold = run_cold(a, so, b);
    ServiceStats stats;
    const Column warm = run_warm(a, svc, b, &stats);
    std::printf("%-18s %10.2f ms %10.2f ms %10.2f ms %10.2f ms %8.2fx\n",
                name, cold.first * 1e3, cold.amortized * 1e3,
                warm.first * 1e3, warm.amortized * 1e3,
                cold.amortized / warm.amortized);
    report.row("warm_vs_cold", name,
               {{"cold_first_seconds", cold.first},
                {"cold_amortized_seconds", cold.amortized},
                {"warm_first_seconds", warm.first},
                {"warm_amortized_seconds", warm.amortized},
                {"speedup", cold.amortized / warm.amortized}});
    std::printf("%-18s cache %zu hit / %zu miss; slot pool %zu hit / "
                "%zu miss\n",
                "", stats.cache_hits, stats.cache_misses,
                stats.runtime.pool_hits, stats.runtime.pool_misses);
  }
  std::printf("\ncold = fresh CholeskySolver per request (ordering + "
              "symbolic + numeric + solve);\nwarm = SolverService session "
              "per request (symbolic + plan + pool cached after the "
              "first).\n");
}

}  // namespace
}  // namespace spchol::bench

int main() {
  spchol::bench::JsonReport report("service");
  spchol::bench::run(report);
  spchol::bench::run_solve_amortized(report);
  report.write("BENCH_service.json");
  return 0;
}
