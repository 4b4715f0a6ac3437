// SolverRuntime/SolverService coverage: the pattern cache must serve
// repeated same-pattern sessions with zero analyze/ordering work, the
// admission gate must bound in-flight factorizations, and concurrent
// sessions on one shared runtime must produce factors bitwise identical
// to independent serial per-call CholeskySolver runs for every
// worker/stream combination. CholeskySolver itself must tolerate
// concurrent solve()/stats() readers while another thread refactorizes
// (this file runs under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <latch>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "spchol/core/internal.hpp"
#include "spchol/matrix/coo.hpp"
#include "test_util.hpp"

namespace spchol {
namespace {

/// Reference factor values from a cold, per-call CholeskySolver run.
std::vector<double> reference_values(const CscMatrix& a,
                                     const SolverOptions& opts) {
  CholeskySolver solver(opts);
  solver.factorize(a);
  const auto v = solver.factor().values();
  return {v.begin(), v.end()};
}

void expect_bitwise_equal(const std::vector<double>& a,
                          std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "value index " << i;
  }
}

/// Hybrid options with thresholds low enough that the small test
/// matrices actually split across CPU and GPU.
SolverOptions hybrid_options(Method m, int workers) {
  SolverOptions so;
  so.factor.method = m;
  so.factor.exec = Execution::kGpuHybrid;
  so.factor.cpu_workers = workers;
  so.factor.gpu_threshold_rl = 2'000;
  so.factor.gpu_threshold_rlb = 2'000;
  return so;
}

TEST(SolverService, WarmCacheSkipsSymbolicWork) {
  const CscMatrix a = grid3d_7pt(6, 6, 6);
  ServiceOptions so;
  so.runtime.workers = 2;
  SolverService service(so);

  const auto cold = service.session(a);
  EXPECT_FALSE(cold->stats().symbolic_cached);
  EXPECT_GT(cold->stats().analyze_seconds, 0.0);

  const auto warm = service.session(a);
  EXPECT_TRUE(warm->stats().symbolic_cached);
  EXPECT_EQ(warm->stats().analyze_seconds, 0.0);
  // The cached symbolic factor is SHARED, not recomputed.
  EXPECT_EQ(&cold->symbolic(), &warm->symbolic());

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.requests, 2u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.patterns_cached, 1u);
}

TEST(SolverService, ValueChangesAreCacheHits) {
  // Same pattern, different values — the refactorize workload. The
  // second session must hit the cache and still factor ITS values.
  CscMatrix a = grid2d_5pt(10, 10);
  ServiceOptions so;
  so.runtime.workers = 2;
  SolverService service(so);
  const auto s1 = service.session(a);
  s1->factorize(a);

  CscMatrix a2 = a;
  for (double& v : a2.mutable_values()) v *= 2.0;
  const auto s2 = service.session(a2);
  EXPECT_TRUE(s2->stats().symbolic_cached);
  s2->factorize(a2);
  expect_bitwise_equal(reference_values(a2, SolverOptions{}),
                       s2->factor()->values());
}

TEST(SolverService, DistinctPatternsMissAndEvict) {
  const CscMatrix a = grid2d_5pt(10, 10);
  const CscMatrix b = grid2d_5pt(11, 11);
  ServiceOptions so;
  so.runtime.workers = 2;
  so.cache_capacity = 1;
  SolverService service(so);

  (void)service.session(a);
  (void)service.session(b);  // evicts a's entry (capacity 1)
  (void)service.session(a);  // miss again
  const ServiceStats st = service.stats();
  EXPECT_EQ(st.cache_misses, 3u);
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_GE(st.cache_evictions, 2u);
  EXPECT_EQ(st.patterns_cached, 1u);
}

TEST(SolverService, SymbolicShapingOptionsKeyTheCache) {
  const CscMatrix a = grid2d_5pt(10, 10);
  SolverService service;
  (void)service.session(a);

  // Worker counts do NOT shape the symbolic result: still a hit.
  SolverOptions workers_differ;
  workers_differ.factor.cpu_workers = 2;
  workers_differ.ordering_opts.workers = 2;
  workers_differ.analyze.workers = 2;
  EXPECT_TRUE(service.session(a, workers_differ)->stats().symbolic_cached);

  // A different ordering method does: miss.
  SolverOptions rcm;
  rcm.ordering_opts.method = OrderingMethod::kRcm;
  EXPECT_FALSE(service.session(a, rcm)->stats().symbolic_cached);
}

TEST(SolverService, CachedPlanAndPoolsAreReused) {
  const CscMatrix a = grid3d_7pt(6, 6, 6);
  ServiceOptions so;
  so.runtime.workers = 2;
  SolverService service(so);
  const SolverOptions ho = hybrid_options(Method::kRL, 4);

  const auto s1 = service.session(a, ho);
  s1->factorize(a);
  const RuntimeStats r1 = service.runtime().stats();
  EXPECT_EQ(r1.pool_misses, 1u);

  const auto s2 = service.session(a, ho);
  s2->factorize(a);
  s2->factorize(a);
  const RuntimeStats r2 = service.runtime().stats();
  EXPECT_EQ(r2.pool_misses, 1u);  // no new pool was ever built
  EXPECT_GE(r2.pool_hits, 2u);
  EXPECT_EQ(r2.factorizations, 3u);
  expect_bitwise_equal(reference_values(a, ho), s2->factor()->values());
}

/// RL kGpuHybrid factor and solve options: device factor nodes on the
/// small test matrices, and a scheduled solve, which runs on the host.
SolverOptions gpu_solve_options() {
  SolverOptions so = hybrid_options(Method::kRL, 4);
  so.solve.exec = Execution::kGpuHybrid;
  so.solve.workers = 4;
  so.solve.gpu_threshold = 2'000;
  return so;
}

std::vector<double> ones(const CscMatrix& a, index_t nrhs) {
  return std::vector<double>(static_cast<std::size_t>(a.cols()) * nrhs, 1.0);
}

const std::optional<std::size_t> threads_at_start =
    testing::baseline_threads();

TEST(SolverService, ThreadsAreTheCrewAndTheCaller) {
  // The runtime's crew is the process's one set of worker threads: task
  // DAGs, dense kernel bands and device kernels all run on its 3 threads
  // and the calling thread, and no other thread outlives a request.
  if (!threads_at_start) GTEST_SKIP() << "no /proc/self/task";
  const CscMatrix a = grid3d_7pt(8, 8, 8);
  ServiceOptions so;
  so.runtime.workers = 3;
  SolverService service(so);
  const SolverOptions opts = gpu_solve_options();
  const auto session = service.session(a, opts);
  for (int rep = 0; rep < 2; ++rep) {  // cold, then warm
    session->factorize(a);
    (void)session->solve(ones(a, 1));
  }
  ASSERT_GT(session->stats().last_factor.supernodes_on_gpu, 0);
  ASSERT_GT(session->stats().last_solve.tasks, 0u);
  EXPECT_EQ(testing::process_threads(), *threads_at_start + 3);
}

/// Device memory in use and bytes moved so far: what a solve must leave
/// as it found them.
std::array<std::size_t, 3> device_footprint(SolverService& service) {
  const gpu::Device& dev = service.runtime().device();
  const gpu::DeviceStats st = dev.stats();
  return {dev.mem_used(), st.h2d_bytes, st.d2h_bytes};
}

TEST(SolverService, SolveWidthsAllocateNoDeviceMemory) {
  // Solves of widths 1 to 12 in kGpuHybrid, after a factorization that
  // put supernodes on the device, run on the host: each is bitwise equal
  // to the serial sweep, and none allocates device memory, moves a byte
  // to or from the device, or consults a pool.
  const CscMatrix a = grid3d_7pt(8, 8, 8);
  const SolverOptions so = gpu_solve_options();
  ServiceOptions svc;
  svc.runtime.workers = 3;
  SolverService service(svc);
  const auto s = service.session(a, so);
  s->factorize(a);
  ASSERT_GT(s->stats().last_factor.supernodes_on_gpu, 0);
  const auto footprint = device_footprint(service);
  const RuntimeStats before = service.runtime().stats();
  for (index_t w = 1; w <= 12; ++w) {
    std::vector<double> b(static_cast<std::size_t>(a.cols()) * w);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = 1.0 + 0.25 * static_cast<double>(i % 7);
    }
    std::vector<double> x_ref(b.size());
    s->factor()->solve_multi(b, x_ref, w);
    expect_bitwise_equal(x_ref, s->solve_multi(b, w));
    ASSERT_GT(s->stats().last_solve.tasks, 0u);
  }
  EXPECT_EQ(device_footprint(service), footprint);
  const RuntimeStats after = service.runtime().stats();
  EXPECT_EQ(after.pools_cached, 1u);
  EXPECT_EQ(after.pool_misses, before.pool_misses);
  EXPECT_EQ(after.pool_hits, before.pool_hits);
}

TEST(SolverService, ConcurrentSolveWidthsAllocateNoDeviceMemory) {
  // Four threads solve widths 1 to 8 on one session, two in ascending
  // and two in descending order (this file runs under TSan in CI). Every
  // solve stays bitwise equal to the serial sweep, and together they
  // leave the device's memory and byte counters as they found them.
  const CscMatrix a = grid3d_7pt(8, 8, 8);
  const SolverOptions so = gpu_solve_options();
  ServiceOptions svc;
  svc.runtime.workers = 3;
  SolverService service(svc);
  const auto s = service.session(a, so);
  s->factorize(a);
  ASSERT_GT(s->stats().last_factor.supernodes_on_gpu, 0);
  std::vector<std::vector<double>> want(9);
  for (index_t w = 1; w <= 8; ++w) {
    want[w].resize(static_cast<std::size_t>(a.cols()) * w);
    s->factor()->solve_multi(ones(a, w), want[w], w);
  }
  const auto footprint = device_footprint(service);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (index_t k = 0; k < 8; ++k) {
        const index_t w = t % 2 == 0 ? 1 + k : 8 - k;
        expect_bitwise_equal(want[w], s->solve_multi(ones(a, w), w));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(service.runtime().stats().pools_cached, 1u);
  EXPECT_EQ(device_footprint(service), footprint);
}

TEST(SolverService, EvictedPatternsReleaseTheirPools) {
  // With room for one pattern, each new pattern evicts the last, and the
  // evicted plans free their slot pools once no session holds them: the
  // device keeps only the cached pattern's factor pool (solves hold
  // none), and clear_cache() frees that too.
  ServiceOptions svc;
  svc.runtime.workers = 3;
  svc.cache_capacity = 1;
  const SolverOptions so = gpu_solve_options();
  const auto run = [&](SolverService& service, index_t k) {
    const CscMatrix a = grid3d_7pt(k, k, k);
    const auto s = service.session(a, so);
    s->factorize(a);
    (void)s->solve_multi(ones(a, 4), 4);
  };
  SolverService last(svc);
  run(last, 10);
  ASSERT_EQ(last.runtime().stats().pools_cached, 1u);

  SolverService service(svc);
  for (const index_t k : {8, 9, 10}) run(service, k);
  EXPECT_EQ(service.stats().cache_evictions, 2u);
  EXPECT_EQ(service.runtime().stats().pools_cached, 1u);
  EXPECT_EQ(service.runtime().device().mem_used(),
            last.runtime().device().mem_used());
  service.clear_cache();
  EXPECT_EQ(service.runtime().stats().pools_cached, 0u);
  EXPECT_EQ(service.runtime().device().mem_used(), 0u);
}

TEST(SolverService, PoolBuildReclaimsIdlePoolsUnderPressure) {
  // A device that holds either pattern's factor pool but not both:
  // pattern B's pool build runs out of memory beside A's idle cached
  // pool (not even B's largest slot, a quarter of its pool or more,
  // fits), so the service drops A's pool and builds B's. A's next
  // factorization builds its pool again, bitwise equal to kCpuSerial.
  const CscMatrix a = grid3d_7pt(10, 10, 10);
  const CscMatrix b = grid3d_7pt(10, 10, 11);
  const SolverOptions ho = hybrid_options(Method::kRL, 4);
  ServiceOptions so;
  so.runtime.workers = 3;
  // The device peak of a fresh service's factorization, and what its
  // pool keeps on the device after it.
  const auto footprint = [&](const CscMatrix& m) {
    SolverService probe(so);
    probe.session(m, ho)->factorize(m);
    const gpu::Device& dev = probe.runtime().device();
    return std::pair{dev.mem_peak(), dev.mem_used()};
  };
  const auto [peak_a, pool_a] = footprint(a);
  const auto [peak_b, pool_b] = footprint(b);
  so.runtime.device.memory_bytes = std::max(peak_a, peak_b);
  ASSERT_LT(so.runtime.device.memory_bytes - pool_a, pool_b / 4);
  ASSERT_LT(so.runtime.device.memory_bytes - pool_b, pool_a / 4);

  SolverService service(so);
  SolverOptions serial;
  serial.factor.exec = Execution::kCpuSerial;
  const auto sa = service.session(a, ho);
  sa->factorize(a);
  EXPECT_EQ(service.runtime().stats().pool_evictions, 0u);
  const auto sb = service.session(b, ho);
  sb->factorize(b);
  EXPECT_GE(service.runtime().stats().pool_evictions, 1u);
  EXPECT_GT(sb->stats().last_factor.supernodes_on_gpu, 0);
  expect_bitwise_equal(reference_values(b, serial), sb->factor()->values());

  sa->factorize(a);
  const RuntimeStats st = service.runtime().stats();
  EXPECT_EQ(st.pool_misses, 3u);
  EXPECT_EQ(st.in_flight, 0u);
  expect_bitwise_equal(reference_values(a, serial), sa->factor()->values());
}

TEST(SolverService, MidDagFaultLeavesWarmSessionUsable) {
  // A NotPositiveDefinite thrown by a deep (leaf) supernode in the middle
  // of a warm session's scheduled kGpuHybrid DAG on the shared crew must
  // fail only that request: the admission gate is released, the session
  // keeps its last good factor, and its next request reuses the cached
  // plan and pool and is bitwise equal to kCpuSerial.
  const CscMatrix a = grid3d_7pt(6, 6, 6);
  ServiceOptions so;
  so.runtime.workers = 3;  // crew of 3 + the caller = 4 workers
  SolverService service(so);
  const SolverOptions ho = hybrid_options(Method::kRL, 4);
  const auto s = service.session(a, ho);
  s->factorize(a);
  const auto warm_factor = s->factor();
  const RuntimeStats warm = service.runtime().stats();
  ASSERT_GT(s->stats().last_factor.scheduler_tasks, 0u);
  ASSERT_GT(s->stats().last_factor.supernodes_on_gpu, 0);

  // Same pattern; the first pivot of the leaf supernode nearest the
  // middle of the elimination order turns negative.
  const SymbolicFactor& symb = s->symbolic();
  const index_t ns = symb.num_supernodes();
  std::vector<char> has_child(static_cast<std::size_t>(ns), 0);
  for (index_t t = 0; t < ns; ++t) {
    if (symb.sn_parent(t) >= 0) has_child[symb.sn_parent(t)] = 1;
  }
  index_t leaf = -1;
  for (index_t t = 0; t < ns; ++t) {
    if (has_child[t] == 0 &&
        (leaf < 0 || std::abs(t - ns / 2) < std::abs(leaf - ns / 2))) {
      leaf = t;
    }
  }
  ASSERT_GT(leaf, 0);
  const index_t bad = symb.permutation().new_to_old(symb.sn_begin(leaf));
  CscMatrix a_bad = a;
  const auto rows = a_bad.col_rows(bad);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k] == bad) {
      a_bad.mutable_values()[a_bad.colptr()[bad] + k] = -1.0;
    }
  }
  try {
    s->factorize(a_bad);
    FAIL() << "expected NotPositiveDefinite";
  } catch (const NotPositiveDefinite& e) {
    EXPECT_EQ(e.column(), bad);
  }
  EXPECT_EQ(service.runtime().stats().in_flight, 0u);
  EXPECT_EQ(s->factor(), warm_factor);  // the last good factor survives

  // The same session serves a good request, bitwise equal to kCpuSerial,
  // on its cached plan and pool.
  s->factorize(a);
  SolverOptions serial;
  serial.factor.exec = Execution::kCpuSerial;
  expect_bitwise_equal(reference_values(a, serial), s->factor()->values());
  const RuntimeStats after = service.runtime().stats();
  EXPECT_EQ(after.in_flight, 0u);
  EXPECT_EQ(after.pool_misses, warm.pool_misses);
  EXPECT_GT(after.pool_hits, warm.pool_hits);
  EXPECT_EQ(s->stats().last_factor.scheduler_tasks,
            warm_factor->stats().scheduler_tasks);
  const std::vector<double> b(static_cast<std::size_t>(a.cols()), 1.0);
  CholeskySolver ref(serial);
  ref.factorize(a);
  std::vector<double> x_ref(b.size());
  ref.factor().solve(b, x_ref);
  expect_bitwise_equal(x_ref, s->solve(b));
}

TEST(SolverService, DeviceOutOfMemoryLeavesRuntimeUsable) {
  // An RL kGpuHybrid request whose largest GPU supernode's panel and
  // update buffer cannot fit on the runtime's device throws
  // DeviceOutOfMemory while the executor builds its slot pool. The
  // failure must release the admission slot and every device byte it
  // took, so a smaller pattern's session on the same runtime then
  // factorizes and solves bitwise equal to kCpuSerial.
  // Room for the largest GPU slot of an 8^3 grid, not of a 12^3 one.
  constexpr std::size_t kDeviceBytes = 128ull << 10;
  ServiceOptions so;
  so.runtime.workers = 3;
  so.runtime.device.memory_bytes = kDeviceBytes;
  SolverService service(so);
  const SolverOptions ho = hybrid_options(Method::kRL, 4);
  auto slot_bytes = [](const SymbolicFactor& symb) {
    std::size_t most = 0;
    for (index_t t = 0; t < symb.num_supernodes(); ++t) {
      if (symb.sn_entries(t) < 2'000) continue;
      const auto below = static_cast<std::size_t>(symb.sn_below(t));
      most = std::max(most, (static_cast<std::size_t>(symb.sn_entries(t)) +
                             below * below) *
                                sizeof(double));
    }
    return most;
  };

  const CscMatrix big = grid3d_7pt(12, 12, 12);
  const auto s_big = service.session(big, ho);
  ASSERT_GT(slot_bytes(s_big->symbolic()), kDeviceBytes);
  const std::size_t used_before = service.runtime().device().mem_used();
  EXPECT_THROW(s_big->factorize(big), gpu::DeviceOutOfMemory);
  EXPECT_EQ(service.runtime().stats().in_flight, 0u);
  EXPECT_EQ(service.runtime().device().mem_used(), used_before);

  const CscMatrix small = grid3d_7pt(8, 8, 8);
  const auto s_small = service.session(small, ho);
  ASSERT_LE(slot_bytes(s_small->symbolic()), kDeviceBytes);
  s_small->factorize(small);
  EXPECT_GT(s_small->stats().last_factor.supernodes_on_gpu, 0);
  SolverOptions serial;
  serial.factor.exec = Execution::kCpuSerial;
  expect_bitwise_equal(reference_values(small, serial),
                       s_small->factor()->values());
  const std::vector<double> b(static_cast<std::size_t>(small.cols()), 1.0);
  CholeskySolver ref(serial);
  ref.factorize(small);
  std::vector<double> x_ref(b.size());
  ref.factor().solve(b, x_ref);
  expect_bitwise_equal(x_ref, s_small->solve(b));
  EXPECT_EQ(service.runtime().stats().in_flight, 0u);
}

/// Options that factor on the CPU and run a scheduled kGpuHybrid solve.
SolverOptions cpu_factor_gpu_solve_options() {
  SolverOptions so;
  so.factor.exec = Execution::kCpuParallel;
  so.factor.cpu_workers = 4;
  so.solve.exec = Execution::kGpuHybrid;
  so.solve.workers = 4;
  so.solve.rhs_panel = 8;
  return so;
}

/// The plan node in the middle of `symb`'s solve plan: a fault there
/// fails a solve mid-DAG.
std::size_t middle_solve_node(const SymbolicFactor& symb) {
  return SolvePlan::build(symb).nodes().size() / 2;
}

TEST(SolverService, FailedSolveLeavesRuntimeUsable) {
  // A scheduled solve whose middle plan node throws must fail only that
  // request: nothing stays in flight, and the same session's next solve
  // on the same runtime is bitwise equal to the serial sweep.
  ServiceOptions so;
  so.runtime.workers = 3;
  SolverService service(so);
  const SolverOptions ho = cpu_factor_gpu_solve_options();
  const index_t nrhs = 8;
  const CscMatrix a = grid3d_7pt(10, 10, 10);
  const auto s = service.session(a, ho);
  s->factorize(a);
  std::vector<double> b(static_cast<std::size_t>(a.cols()) * nrhs);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.25 * static_cast<double>(i % 7);
  }
  {
    const detail::SolveFault fault(middle_solve_node(s->symbolic()));
    EXPECT_THROW((void)s->solve_multi(b, nrhs), Error);
  }
  EXPECT_EQ(service.runtime().stats().in_flight, 0u);

  std::vector<double> x_ref(b.size());
  s->factor()->solve_multi(b, x_ref, nrhs);
  expect_bitwise_equal(x_ref, s->solve_multi(b, nrhs));
  EXPECT_GT(s->stats().last_solve.tasks, 0u);
  EXPECT_EQ(service.runtime().stats().in_flight, 0u);
}

TEST(SolverService, FailedSolveLeavesAliasedRhsUnmodified) {
  // The per-call form: b aliases x, and the scheduled solve throws
  // mid-DAG before any result is written back.
  const CscMatrix a = grid3d_7pt(10, 10, 10);
  const SolverOptions so = cpu_factor_gpu_solve_options();
  CholeskySolver solver(so);
  solver.factorize(a);
  const index_t nrhs = 8;
  std::vector<double> x(static_cast<std::size_t>(a.cols()) * nrhs);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 - 0.125 * static_cast<double>(i % 5);
  }
  const std::vector<double> before = x;
  const detail::SolveFault fault(
      middle_solve_node(solver.factor().symbolic()));
  EXPECT_THROW(solver.factor().solve_multi(x, x, nrhs, so.solve), Error);
  expect_bitwise_equal(before, x);
}

TEST(SolverService, WarmSessionsMatchPerCallAcrossWorkersAndDeviceSizes) {
  // Every worker count, on a runtime with the default device and on one
  // whose device fits exactly one slot of the call's pool.
  const CscMatrix a = grid3d_7pt(6, 6, 6);
  ServiceOptions so;
  so.runtime.workers = 3;
  SolverService service(so);
  for (const Method m : {Method::kRL, Method::kRLB}) {
    for (const int workers : {1, 4, 8}) {
      SCOPED_TRACE(std::string(to_string(m)) +
                   " workers=" + std::to_string(workers));
      const SolverOptions ho = hybrid_options(m, workers);
      const std::vector<double> ref = reference_values(a, ho);
      const auto s = service.session(a, ho);
      s->factorize(a);
      expect_bitwise_equal(ref, s->factor()->values());

      ServiceOptions capped = so;
      capped.runtime.device.memory_bytes =
          testing::one_slot_capacity([&](std::size_t bytes) {
            SolverOptions o = ho;
            o.factor.device.memory_bytes = bytes;
            CholeskySolver solver(o);
            solver.factorize(a);
            return solver.stats();
          });
      SolverService one_slot(capped);
      const auto c = one_slot.session(a, ho);
      c->factorize(a);
      expect_bitwise_equal(ref, c->factor()->values());
      EXPECT_EQ(c->factor()->stats().gpu_stream_pairs, 1);
    }
  }
}

TEST(SolverService, ConcurrentSessionsBitwiseMatchSerialRuns) {
  // N threads, a mix of same and differing patterns, all factorizing
  // concurrently on one shared runtime — every factor must match an
  // independent serial per-call run bitwise.
  const CscMatrix pats[] = {grid3d_7pt(6, 6, 6), grid2d_5pt(25, 25)};
  const SolverOptions ho = hybrid_options(Method::kRL, 4);
  const std::vector<double> refs[] = {reference_values(pats[0], ho),
                                      reference_values(pats[1], ho)};
  ServiceOptions so;
  so.solver = ho;
  so.runtime.workers = 3;
  so.runtime.max_concurrent = 2;
  SolverService service(so);

  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<SolverSession>> sessions(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const CscMatrix& a = pats[t % 2];
      sessions[t] = service.session(a);
      sessions[t]->factorize(a);
      sessions[t]->factorize(a);  // refactorize on the warm path too
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    expect_bitwise_equal(refs[t % 2], sessions[t]->factor()->values());
  }

  const ServiceStats st = service.stats();
  EXPECT_EQ(st.requests, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(st.runtime.factorizations, 2u * kThreads);
  EXPECT_LE(st.runtime.concurrent_peak, 2u);  // admission bound held
  EXPECT_EQ(st.runtime.in_flight, 0u);
  // Concurrent misses for one pattern may both analyze (the insert
  // re-check keeps one), so hits can be less than threads - patterns.
  EXPECT_GE(st.cache_misses, 2u);
  EXPECT_EQ(st.patterns_cached, 2u);
}

TEST(SolverService, ConcurrentSessionsReportExactPerCallModeledTime) {
  // Modeled time is replayed from each call's own DAG, so two sessions
  // factorizing at once on one shared runtime — with a solve in between
  // — report exactly what a standalone per-call factorization does.
  const CscMatrix pats[] = {grid3d_7pt(8, 8, 8), grid3d_vector(5, 5, 5, 3)};
  const SolverOptions ho = hybrid_options(Method::kRL, 4);
  FactorStats want[2];
  for (int p = 0; p < 2; ++p) {
    CholeskySolver solver(ho);
    solver.factorize(pats[p]);
    want[p] = solver.factor().stats();
    ASSERT_GT(want[p].supernodes_on_gpu, 0);
  }
  ServiceOptions so;
  so.solver = ho;
  so.runtime.workers = 3;
  so.runtime.max_concurrent = 2;
  SolverService service(so);

  std::latch start(2);
  std::shared_ptr<SolverSession> sessions[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const CscMatrix& a = pats[t];
      sessions[t] = service.session(a);
      start.arrive_and_wait();
      sessions[t]->factorize(a);
      const std::vector<double> b(static_cast<std::size_t>(a.cols()), 1.0);
      (void)sessions[t]->solve(b);
      sessions[t]->factorize(a);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 2; ++t) {
    SCOPED_TRACE(t);
    const FactorStats& got = sessions[t]->factor()->stats();
    EXPECT_EQ(got.modeled_seconds, want[t].modeled_seconds);
    EXPECT_EQ(got.gpu_overlap_seconds, want[t].gpu_overlap_seconds);
    EXPECT_EQ(got.gpu_kernel_seconds, want[t].gpu_kernel_seconds);
    EXPECT_EQ(got.h2d_seconds, want[t].h2d_seconds);
    EXPECT_EQ(got.d2h_seconds, want[t].d2h_seconds);
    EXPECT_EQ(got.num_gpu_kernels, want[t].num_gpu_kernels);
  }
}

TEST(SolverRuntime, AdmissionGateBlocksAtCapacity) {
  RuntimeOptions ro;
  ro.workers = 1;
  ro.max_concurrent = 1;
  SolverRuntime rt(ro);
  {
    auto first = rt.admit();
    EXPECT_EQ(rt.stats().in_flight, 1u);
    std::thread blocked([&] { const auto second = rt.admit(); });
    // The second admit must park (bounded in-flight), not run.
    while (rt.stats().admission_waits == 0) std::this_thread::yield();
    EXPECT_EQ(rt.stats().in_flight, 1u);
    { const auto release = std::move(first); }  // frees the slot
    blocked.join();
  }
  const RuntimeStats st = rt.stats();
  EXPECT_EQ(st.factorizations, 2u);
  EXPECT_EQ(st.concurrent_peak, 1u);
  EXPECT_EQ(st.admission_waits, 1u);
  EXPECT_EQ(st.in_flight, 0u);
}

TEST(ServiceValidation, BadOptionsRejectedAtConstruction) {
  {
    RuntimeOptions ro;
    ro.workers = -1;
    EXPECT_THROW(SolverRuntime rt(ro), InvalidArgument);
  }
  {
    RuntimeOptions ro;
    ro.max_concurrent = 0;
    EXPECT_THROW(SolverRuntime rt(ro), InvalidArgument);
  }
  {
    ServiceOptions so;
    so.cache_capacity = 0;
    EXPECT_THROW(SolverService s(so), InvalidArgument);
  }
  {
    ServiceOptions so;
    so.solver.factor.cpu_workers = -2;
    EXPECT_THROW(SolverService s(so), InvalidArgument);
  }
}

TEST(ServiceValidation, RuntimeDeviceModelValidated) {
  // The shared device's cost model must price every op at a finite,
  // non-negative time.
  auto construct = [](auto mutate) {
    RuntimeOptions ro;
    ro.workers = 1;
    mutate(ro.device.model);
    SolverRuntime rt(ro);
  };
  EXPECT_THROW(construct([](gpu::PerfModel& m) { m.d2h_gbytes_per_s = 0; }),
               InvalidArgument);
  EXPECT_THROW(
      construct([](gpu::PerfModel& m) { m.gpu_peak_gflops = -1; }),
      InvalidArgument);
  EXPECT_THROW(
      construct([](gpu::PerfModel& m) { m.gpu_kernel_launch = -1e-6; }),
      InvalidArgument);
  EXPECT_THROW(
      construct([](gpu::PerfModel& m) {
        m.cpu_core_gflops = std::numeric_limits<double>::infinity();
      }),
      InvalidArgument);
  construct([](gpu::PerfModel&) {});
  {
    ServiceOptions so;
    so.runtime.device.model.transfer_latency = -1.0;
    EXPECT_THROW(SolverService s(so), InvalidArgument);
  }
}

TEST(ServiceValidation, BadSessionOptionsRejectedBeforeAnyWork) {
  const CscMatrix a = grid2d_5pt(5, 5);
  SolverService service;
  SolverOptions bad;
  bad.analyze.merge_growth_cap = -1.0;
  EXPECT_THROW((void)service.session(a, bad), InvalidArgument);
  bad = SolverOptions{};
  bad.ordering_opts.workers = -1;
  EXPECT_THROW((void)service.session(a, bad), InvalidArgument);
  EXPECT_EQ(service.stats().cache_misses, 0u);
}

TEST(SolverValidation, AnalyzeRejectsBadOptionsUpFront) {
  // The satellite contract: CholeskySolver::analyze validates ALL stage
  // options before running the ordering, not deep inside factorize().
  const CscMatrix a = grid2d_5pt(5, 5);
  SolverOptions bad;
  bad.factor.cpu_workers = -1;
  CholeskySolver solver(bad);
  EXPECT_THROW(solver.analyze(a), InvalidArgument);
  EXPECT_FALSE(solver.analyzed());
}

TEST(SolverThreadSafety, ConcurrentSolveAndStatsDuringRefactorize) {
  // CholeskySolver readers (solve, stats, flags, timing) must be safe
  // while another thread refactorizes — the TSan regression of the
  // shared-runtime satellite.
  const CscMatrix a = grid2d_5pt(20, 20);
  const index_t n = a.cols();
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);

  SolverOptions opts;
  opts.factor.cpu_workers = 2;
  CholeskySolver solver(opts);
  solver.factorize(a);
  const std::vector<double> x0 = solver.solve(b);

  std::latch start(3);
  std::thread writer([&] {
    start.arrive_and_wait();
    for (int i = 0; i < 5; ++i) solver.factorize(a);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < 20; ++i) {
        // Identical matrix values every refactorize ⇒ identical factor
        // ⇒ the solution never changes, torn reads aside.
        const std::vector<double> x = solver.solve(b);
        for (std::size_t k = 0; k < x.size(); ++k) ASSERT_EQ(x[k], x0[k]);
        ASSERT_TRUE(solver.factorized());
        const FactorStats st = solver.stats();
        ASSERT_GT(st.total_supernodes, 0);
        (void)solver.ordering_stats();
        (void)solver.pipeline_seconds();
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
}

TEST(SolverService, OneShotSolveMatchesCholeskySolver) {
  const CscMatrix a = grid2d_5pt(12, 12);
  const index_t n = a.cols();
  std::vector<double> b(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) b[i] = 1.0 + 0.25 * i;
  SolverService service;
  const std::vector<double> x = service.solve(a, b);
  const std::vector<double> want = CholeskySolver::solve(a, b);
  ASSERT_EQ(x.size(), want.size());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], want[i]);
}

// --- A→L assembly map --------------------------------------------------
// Every case compares the library's map assembly bitwise (memcmp, so
// -0.0 and 0.0 differ) with test_util's permuted_sym_lower reference,
// and the session factor with a kCpuSerial per-call factorization.

/// Factor storage of `a` assembled through the library's A→L map.
std::vector<double> map_assembly(const CscMatrix& a,
                                 const SymbolicFactor& symb) {
  const detail::AssemblyMap map = detail::build_assembly_map(a, symb);
  std::vector<double> v(static_cast<std::size_t>(symb.factor_values()), 0.0);
  map.gather(a.values(), v);
  return v;
}

void expect_same_bits(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

/// Checks a session's factor of `m` against the reference assembly and a
/// kCpuSerial per-call factorization on the session's symbolic factor.
void expect_session_factor_matches(const SolverSession& s,
                                   const CscMatrix& m) {
  const SymbolicFactor& symb = s.symbolic();
  expect_same_bits(map_assembly(m, symb), testing::reference_assembly(m, symb));
  FactorOptions serial = s.options().factor;
  serial.exec = Execution::kCpuSerial;
  const CholeskyFactor ref = CholeskyFactor::factorize(m, symb, serial);
  expect_same_bits(ref.values(), s.factor()->values());
}

SolverOptions scheduled_options() {
  SolverOptions so;
  so.factor.exec = Execution::kCpuParallel;
  so.factor.cpu_workers = 4;
  return so;
}

/// `a` with the listed entries rewritten by `edit(row, col, value)`;
/// entries for which it returns false are dropped.
template <class Edit>
CscMatrix edited(const CscMatrix& a, Edit edit) {
  CooMatrix coo(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      double v = vals[k];
      if (edit(rows[k], j, v)) coo.add(rows[k], j, v);
    }
  }
  return coo.to_csc();
}

TEST(AssemblyMap, SubsetPatternFallsBackToTransientMap) {
  const CscMatrix a = grid3d_7pt(6, 6, 6);
  // Same n, a strict subset of the pattern: every third off-diagonal
  // entry dropped (the matrix stays diagonally dominant).
  offset_t seen = 0;
  const CscMatrix sub = edited(a, [&](index_t i, index_t j, double&) {
    return i == j || ++seen % 3 != 0;
  });
  ASSERT_LT(sub.nnz(), a.nnz());
  ServiceOptions so;
  so.runtime.workers = 3;
  so.solver = scheduled_options();
  SolverService service(so);
  const auto s = service.session(a);
  s->factorize(sub);
  expect_session_factor_matches(*s, sub);
  // The cached map still serves the cached pattern afterwards.
  s->factorize(a);
  expect_session_factor_matches(*s, a);
}

TEST(AssemblyMap, EntryOutsideTheStructureThrows) {
  const CscMatrix a = grid2d_5pt(8, 8);
  ServiceOptions so;
  so.runtime.workers = 3;
  so.solver = scheduled_options();
  SolverService service(so);
  const auto s = service.session(a);
  const SymbolicFactor& symb = s->symbolic();
  // The first (i, j) pair whose permuted position L does not store.
  index_t oi = -1, oj = -1;
  for (index_t j = 0; j < a.cols() && oi < 0; ++j) {
    for (index_t i = j + 1; i < a.cols(); ++i) {
      const index_t ni = symb.permutation().old_to_new(i);
      const index_t nj = symb.permutation().old_to_new(j);
      const index_t c = std::min(ni, nj);
      if (symb.row_position(symb.col_to_sn(c), std::max(ni, nj)) < 0) {
        oi = i;
        oj = j;
        break;
      }
    }
  }
  ASSERT_GE(oi, 0);
  CooMatrix coo(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (std::size_t k = 0; k < a.col_rows(j).size(); ++k) {
      coo.add(a.col_rows(j)[k], j, a.col_values(j)[k]);
    }
  }
  coo.add(oi, oj, -1e-3);
  const CscMatrix out = coo.to_csc();
  const auto message_of = [](auto&& f) {
    try {
      f();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  const std::string want = "A entry outside the symbolic structure";
  EXPECT_NE(message_of([&] { s->factorize(out); }).find(want),
            std::string::npos);
  EXPECT_NE(message_of([&] { testing::reference_assembly(out, symb); })
                .find(want),
            std::string::npos);
  EXPECT_FALSE(s->factorized());
}

TEST(AssemblyMap, ExplicitNegativeZeroSurvives) {
  const CscMatrix a = grid3d_7pt(5, 5, 5);
  bool done = false;
  const CscMatrix z = edited(a, [&](index_t i, index_t j, double& v) {
    if (!done && i != j) {
      v = -0.0;
      done = true;
    }
    return true;
  });
  ASSERT_EQ(z.nnz(), a.nnz());
  ServiceOptions so;
  so.runtime.workers = 3;
  so.solver = scheduled_options();
  SolverService service(so);
  const auto s = service.session(z);
  s->factorize(z);
  expect_session_factor_matches(*s, z);
  const std::vector<double> got = map_assembly(z, s->symbolic());
  EXPECT_TRUE(std::any_of(got.begin(), got.end(), [](double x) {
    return x == 0.0 && std::signbit(x);
  }));
}

TEST(AssemblyMap, MirroredEntriesSumLikeTheMerge) {
  // Full symmetric storage: both (i, j) and (j, i) carry part of the
  // coupling (0.1 and 0.2 sum to 0.30000000000000004 either way round).
  // Analysis takes a lower triangle, so the session is created from `a`
  // and factorizes the full-storage matrix through a transient map.
  const CscMatrix a = grid3d_7pt(5, 5, 5);
  CooMatrix coo(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (std::size_t k = 0; k < a.col_rows(j).size(); ++k) {
      const index_t i = a.col_rows(j)[k];
      const double v = a.col_values(j)[k];
      if (i == j) {
        coo.add(i, j, v);
      } else {
        coo.add(i, j, -0.1);
        coo.add(j, i, -0.2);
      }
    }
  }
  const CscMatrix full = coo.to_csc();
  ServiceOptions so;
  so.runtime.workers = 3;
  so.solver = scheduled_options();
  SolverService service(so);
  const auto s = service.session(a);
  s->factorize(full);
  expect_session_factor_matches(*s, full);
}

TEST(AssemblyMap, ConcurrentSessionsShareOneCachedMap) {
  const CscMatrix a = grid3d_7pt(7, 7, 7);
  CscMatrix b = a;
  for (double& v : b.mutable_values()) v *= 1.5;
  ServiceOptions so;
  so.runtime.workers = 3;
  so.runtime.max_concurrent = 2;
  so.solver = scheduled_options();
  SolverService service(so);
  const auto s1 = service.session(a);
  const auto s2 = service.session(b);
  ASSERT_EQ(&s1->symbolic(), &s2->symbolic());  // one cache entry
  std::latch go(2);
  std::thread t1([&] {
    go.arrive_and_wait();
    s1->factorize(a);
  });
  std::thread t2([&] {
    go.arrive_and_wait();
    s2->factorize(b);
  });
  t1.join();
  t2.join();
  expect_session_factor_matches(*s1, a);
  expect_session_factor_matches(*s2, b);
  // The factors share the session's symbolic factor instead of copying it.
  EXPECT_EQ(&s1->factor()->symbolic(), &s1->symbolic());
  EXPECT_EQ(&s2->factor()->symbolic(), &s2->symbolic());
}

}  // namespace
}  // namespace spchol
