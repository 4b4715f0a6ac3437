// google-benchmark microbenchmarks of the dense kernel substrate (the
// real-execution speed of the simulation, not the modeled device times):
// the four offloaded operations across supernodal panel shapes, serial vs
// forked on a WorkerCrew of hardware − 1 threads plus the calling thread
// (one thread per core, as a per-call run at the default worker count). The 866×466 and 1050 shapes are the largest
// supernode of the request benchmark's warm_kkt workload (width 466 with
// 866 rows below it; a 1050-wide diagonal block).
#include <benchmark/benchmark.h>

#include <vector>

#include "spchol/dense/kernels.hpp"
#include "spchol/support/rng.hpp"
#include "spchol/support/worker_crew.hpp"

namespace {

using namespace spchol;

std::vector<double> make_matrix(index_t rows, index_t cols,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// The crew the *Parallel cases fork on, and its width (threads + caller).
WorkerCrew& crew() {
  static WorkerCrew c(resolve_worker_count(0) - 1);
  return c;
}
std::size_t width() { return crew().size() + 1; }

std::vector<double> make_spd(index_t n, std::uint64_t seed) {
  auto m = make_matrix(n, n, seed);
  for (index_t j = 0; j < n; ++j) {
    m[j + static_cast<std::size_t>(j) * n] = 2.0 * n;
  }
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const index_t m = state.range(0), n = state.range(1), k = state.range(2);
  const auto a = make_matrix(m, k, 1);
  const auto b = make_matrix(n, k, 2);
  auto c = make_matrix(m, n, 3);
  for (auto _ : state) {
    dense::gemm_nt_minus(m, n, k, a.data(), m, b.data(), n, c.data(), m);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      dense::flops_gemm(m, n, k) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)
    ->Args({256, 64, 128})
    ->Args({1024, 128, 256})
    ->Args({2048, 256, 256});

void BM_GemmParallel(benchmark::State& state) {
  const index_t m = state.range(0), n = state.range(1), k = state.range(2);
  const auto a = make_matrix(m, k, 1);
  const auto b = make_matrix(n, k, 2);
  auto c = make_matrix(m, n, 3);
  for (auto _ : state) {
    dense::gemm_nt_minus_parallel(crew(), width(), m, n, k, a.data(),
                                  m, b.data(), n, c.data(), m);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      dense::flops_gemm(m, n, k) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmParallel)->Args({1024, 128, 256})->Args({2048, 256, 256})
    ->UseRealTime();

void BM_Syrk(benchmark::State& state) {
  const index_t n = state.range(0), k = state.range(1);
  const auto a = make_matrix(n, k, 4);
  auto c = make_matrix(n, n, 5);
  for (auto _ : state) {
    dense::syrk_lower_nt(n, k, a.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      dense::flops_syrk(n, k) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Syrk)
    ->Args({256, 64})
    ->Args({1024, 128})
    ->Args({2048, 128})
    ->Args({866, 466});

void BM_SyrkParallel(benchmark::State& state) {
  const index_t n = state.range(0), k = state.range(1);
  const auto a = make_matrix(n, k, 4);
  auto c = make_matrix(n, n, 5);
  for (auto _ : state) {
    dense::syrk_lower_nt_parallel(crew(), width(), n, k, a.data(), n,
                                  c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      dense::flops_syrk(n, k) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SyrkParallel)
    ->Args({1024, 128})
    ->Args({2048, 128})
    ->Args({866, 466})
    ->UseRealTime();

void BM_Trsm(benchmark::State& state) {
  const index_t m = state.range(0), n = state.range(1);
  auto l = make_spd(n, 6);
  dense::potrf_lower(n, l.data(), n);
  const auto b0 = make_matrix(m, n, 7);
  auto b = b0;
  for (auto _ : state) {
    state.PauseTiming();
    b = b0;
    state.ResumeTiming();
    dense::trsm_right_lower_trans(m, n, l.data(), n, b.data(), m);
    benchmark::DoNotOptimize(b.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      dense::flops_trsm(m, n) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Trsm)->Args({1024, 128})->Args({2048, 256})->Args({866, 466});

void BM_TrsmParallel(benchmark::State& state) {
  const index_t m = state.range(0), n = state.range(1);
  auto l = make_spd(n, 6);
  dense::potrf_lower(n, l.data(), n);
  const auto b0 = make_matrix(m, n, 7);
  auto b = b0;
  for (auto _ : state) {
    state.PauseTiming();
    b = b0;
    state.ResumeTiming();
    dense::trsm_right_lower_trans_parallel(crew(), width(), m, n,
                                           l.data(), n, b.data(), m);
    benchmark::DoNotOptimize(b.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      dense::flops_trsm(m, n) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrsmParallel)->Args({866, 466})
    ->UseRealTime();

void BM_Potrf(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto a0 = make_spd(n, 8);
  auto a = a0;
  for (auto _ : state) {
    state.PauseTiming();
    a = a0;
    state.ResumeTiming();
    dense::potrf_lower(n, a.data(), n);
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      dense::flops_potrf(n) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Potrf)->Arg(128)->Arg(512)->Arg(1024)->Arg(1050);

void BM_PotrfParallel(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto a0 = make_spd(n, 8);
  auto a = a0;
  for (auto _ : state) {
    state.PauseTiming();
    a = a0;
    state.ResumeTiming();
    dense::potrf_lower_parallel(crew(), width(), n, a.data(), n);
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      dense::flops_potrf(n) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PotrfParallel)->Arg(1050)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
