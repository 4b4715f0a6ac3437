// SolverService request loop: a long-lived runtime (shared worker crew,
// shared simulated device, admission gate) serving a stream of
// refactorize+solve requests whose values change every step while the
// sparsity pattern stays fixed — the timestep-update workload. The
// first request pays ordering + symbolic analysis and builds the slot
// pools; every later request is a pattern-cache hit, reuses the cached
// plans' slot pools and runs only the numeric factorization and solve.
#include <cstdio>
#include <vector>

#include "spchol/spchol.hpp"

int main() {
  using namespace spchol;

  // One pattern, many value updates: a 3-D Poisson operator whose
  // coefficients drift each timestep.
  CscMatrix a = grid3d_7pt(12, 12, 12);
  const index_t n = a.cols();
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);

  ServiceOptions opts;
  opts.solver.factor.method = Method::kRL;
  opts.solver.factor.exec = Execution::kGpuHybrid;
  opts.solver.factor.gpu_threshold_rl = 2'000;  // demo-sized split
  opts.solver.factor.cpu_workers = 4;  // scheduled driver on any machine
  opts.runtime.workers = 3;        // crew threads (+1 caller per request)
  opts.runtime.max_concurrent = 2; // in-flight factorization cap
  SolverService service(opts);

  std::printf("request  cached  factorize(ms)  solve x[0]\n");
  for (int step = 0; step < 5; ++step) {
    // The "simulation" update: same pattern, new values.
    for (double& v : a.mutable_values()) v *= 1.0 + 1e-3 * (step + 1);

    const auto session = service.session(a);
    session->factorize(a);
    const std::vector<double> x = session->solve(b);
    const SessionStats st = session->stats();
    std::printf("%7d  %6s  %13.3f  %10.6f\n", step,
                st.symbolic_cached ? "warm" : "cold",
                st.last_factorize_seconds * 1e3, x[0]);
  }

  const ServiceStats st = service.stats();
  std::printf("\nservice: %zu requests, %zu warm (cache hits), %zu cold "
              "(analyzed)\n",
              st.requests, st.cache_hits, st.cache_misses);
  std::printf("runtime: %zu factorizations, peak %zu in flight, slot "
              "pools %zu built / %zu reused\n",
              st.runtime.factorizations, st.runtime.concurrent_peak,
              st.runtime.pool_misses, st.runtime.pool_hits);
  return 0;
}
