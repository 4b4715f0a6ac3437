// Fan-both plan-shape coverage: bitwise identity of the aggregated
// executor against the serial reference across workers / streams /
// devices / batching, the >= 1.3x modeled task-makespan acceptance bar
// on the shared-separator analog (with the chain-wait counter showing
// WHY — the scatter chains are gone), the aggregation stats counters,
// the buffer-cap fallback, cross-device transfer aggregation, and
// option validation.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "test_util.hpp"

// Sanitizer instrumentation inflates per-task wall durations roughly
// uniformly, which dilutes the measured-makespan ratio the speedup bar
// asserts on (fan-both has more, shorter tasks). The bar runs in the
// native tier-1 job; under TSan this file's value is race coverage.
#if defined(__SANITIZE_THREAD__)
#define SPCHOL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPCHOL_TSAN 1
#endif
#endif

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
                          const std::vector<double>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " value index " << i;
  }
}

/// Shapes that exercise aggregation from different angles: the wide
/// shallow forest (hundreds of contributors into ONE shared root — the
/// deepest scatter chain the planner can meet), a nested-dissection
/// grid whose separators collect updates from both child subtrees, and
/// a vector-valued grid with medium supernodes.
std::vector<std::pair<const char*, CscMatrix>> fan_both_cases() {
  std::vector<std::pair<const char*, CscMatrix>> cases;
  cases.emplace_back("forest", small_supernode_forest(60, 8, 12));
  cases.emplace_back("wide_6x6x6", grid3d_wide(6, 6, 6, 2));
  cases.emplace_back("vector_6x6x6", grid3d_vector(6, 6, 6, 3));
  return cases;
}

TEST(FanBoth, BitwiseIdenticalOnCpuAcrossWorkersAndBatching) {
  for (const auto& [name, a] : fan_both_cases()) {
    SCOPED_TRACE(name);
    SolverOptions serial;
    serial.factor.exec = Execution::kCpuSerial;
    const auto reference = factor_values(a, serial);

    bool aggregated_somewhere = false;
    for (const int workers : {0, 1, 4, 8}) {
      for (const offset_t batch_entries : {offset_t{0}, offset_t{300}}) {
        SolverOptions opts;
        opts.factor.method = Method::kRL;
        opts.factor.exec = Execution::kCpuParallel;
        opts.factor.cpu_workers = workers;
        opts.factor.batch_entries = batch_entries;
        opts.factor.batch_max_supernodes = 8;
        opts.factor.fan_both = true;
        FactorStats st;
        const auto got = factor_values(a, opts, &st);
        expect_bitwise_equal(reference, got,
                             std::string(name) +
                                 " workers=" + std::to_string(workers) +
                                 " batch=" + std::to_string(batch_entries));
        EXPECT_EQ(st.apply_nodes, st.aggregation_buffers);
        if (st.aggregation_buffers > 0) {
          aggregated_somewhere = true;
          EXPECT_GT(st.aggregation_bytes_peak, 0u);
        }
      }
    }
    EXPECT_TRUE(aggregated_somewhere)
        << name << ": no configuration ever formed an aggregation buffer";
  }
}

TEST(FanBoth, BitwiseIdenticalOnHybridAcrossStreamsDevicesAndBatching) {
  for (const auto& [name, a] : fan_both_cases()) {
    SCOPED_TRACE(name);
    SolverOptions serial;
    serial.factor.exec = Execution::kCpuSerial;
    const auto reference = factor_values(a, serial);

    for (const int devices : {1, 2}) {
      for (const int streams : {1, 4}) {
        for (const offset_t batch_entries : {offset_t{0}, offset_t{600}}) {
          SolverOptions opts;
          opts.factor.method = Method::kRL;
          opts.factor.exec = Execution::kGpuHybrid;
          opts.factor.cpu_workers = 4;
          opts.factor.gpu_streams = streams;
          opts.factor.gpu_devices = devices;
          opts.factor.gpu_threshold_rl = 600;  // force a mixed CPU/GPU split
          opts.factor.batch_entries = batch_entries;
          opts.factor.batch_max_supernodes = 8;
          opts.factor.fan_both = true;
          FactorStats st;
          const auto got = factor_values(a, opts, &st);
          expect_bitwise_equal(
              reference, got,
              std::string(name) + " devices=" + std::to_string(devices) +
                  " streams=" + std::to_string(streams) +
                  " batch=" + std::to_string(batch_entries));
          EXPECT_EQ(st.apply_nodes, st.aggregation_buffers);
        }
      }
    }
  }
}

TEST(FanBoth, DecoupledBatchesKeepFusedDeviceLaunches) {
  // The decoupled-batch split (batched-COMPUTE + per-target
  // BATCHSCATTER) must preserve the fused device launch path and its
  // bitwise identity — same forcing recipe as the exec-plan fused test.
  const CscMatrix a = small_supernode_forest(48, 16, 20);
  SolverOptions serial;
  serial.factor.exec = Execution::kCpuSerial;
  const auto reference = factor_values(a, serial);

  SolverOptions opts;
  opts.factor.method = Method::kRL;
  opts.factor.exec = Execution::kGpuHybrid;
  opts.factor.cpu_workers = 4;
  opts.factor.gpu_streams = 2;
  opts.factor.gpu_threshold_rl = 2000;
  opts.factor.batch_entries = 600;
  opts.factor.batch_max_supernodes = 8;
  opts.factor.fan_both = true;
  FactorStats st;
  const auto got = factor_values(a, opts, &st);
  expect_bitwise_equal(reference, got, "fused device batches");
  EXPECT_GT(st.batches_formed, 0);
  EXPECT_GT(st.fused_device_launches, 0u);
}

TEST(FanBoth, ModeledMakespanSpeedupOnSharedSeparatorAnalog) {
  // The acceptance bar, on the exact case the shape was built for: the
  // PFlow_742 analog with batching on shows only a modest scheduled
  // speedup because its batches share ancestor targets and therefore
  // serialize on whole per-target scatter chains. At 8 workers the
  // fan-both shape (decoupled batches + aggregation buffers) must
  // improve the modeled 8-worker task makespan by >= 1.3x over the
  // right-looking shape. The makespan replays MEASURED per-task wall
  // durations, so each shape takes its best of three runs to keep
  // scheduler noise out of the ratio.
#if defined(SPCHOL_TSAN)
  GTEST_SKIP() << "measured-duration ratio distorted by sanitizer "
                  "overhead; the bar is asserted in the native job";
#endif
  const DatasetEntry& e = dataset_entry("PFlow_742_small");
  const CscMatrix a = e.make();
  const Permutation fill = compute_ordering(a, OrderingOptions{});
  const SymbolicFactor symb = SymbolicFactor::analyze(a, fill);
  auto run = [&](bool fan_both, double* makespan) {
    FactorOptions opts;
    opts.method = Method::kRL;
    opts.exec = Execution::kCpuParallel;
    opts.cpu_workers = 8;
    opts.batch_entries = 4096;
    opts.fan_both = fan_both;
    CholeskyFactor best = CholeskyFactor::factorize(a, symb, opts);
    *makespan = best.stats().modeled_task_parallel_seconds;
    for (int rep = 1; rep < 3; ++rep) {
      CholeskyFactor f = CholeskyFactor::factorize(a, symb, opts);
      if (f.stats().modeled_task_parallel_seconds < *makespan) {
        *makespan = f.stats().modeled_task_parallel_seconds;
        best = std::move(f);
      }
    }
    return best;
  };
  double rl_makespan = 0.0, fb_makespan = 0.0;
  const CholeskyFactor rl = run(false, &rl_makespan);
  const CholeskyFactor fb = run(true, &fb_makespan);

  EXPECT_EQ(rl.stats().aggregation_buffers, 0);
  EXPECT_GT(fb.stats().aggregation_buffers, 0);
  EXPECT_EQ(fb.stats().apply_nodes, fb.stats().aggregation_buffers);
  EXPECT_GT(fb.stats().aggregation_bytes_peak, 0u);

  // The whole point of the shape: the chain-serialized waits (the
  // counter the satellite added) collapse with the scatter chains.
  EXPECT_GT(rl.stats().scheduler_chain_waits, 0u);
  EXPECT_LT(fb.stats().scheduler_chain_waits,
            rl.stats().scheduler_chain_waits);

  const double speedup = rl_makespan / fb_makespan;
  EXPECT_GE(speedup, 1.3) << "rl " << rl_makespan << "s vs fan-both "
                          << fb_makespan << "s";

  // And the factors themselves are bit-for-bit the same.
  const auto vrl = rl.values();
  const auto vfb = fb.values();
  expect_bitwise_equal({vrl.begin(), vrl.end()}, {vfb.begin(), vfb.end()},
                       "rl vs fan-both");
}

TEST(FanBoth, AggregatedCrossDeviceTransfersShrink) {
  // Separator targets collect contributors from several device shards.
  // Under the right-looking shape every cross-device contributor ships
  // its update slice; under fan-both the pre-folded aggregation buffer
  // ships once — priced at the union footprint of its cross-device
  // members' slices, which the heavy sibling-subtree overlap into a
  // shared separator makes strictly smaller than the per-contributor
  // sum. Asserted on the vector-grid mesh, whose mid-level separators
  // stay device-assigned (the wide-grid analog below routes ALL of its
  // cross-shard targets through the cooperative spine, so it never pays
  // per-contributor hops in the first place).
  const CscMatrix a = grid3d_vector(12, 12, 12, 4);
  SolverOptions serial;
  serial.factor.exec = Execution::kCpuSerial;
  const auto reference = factor_values(a, serial);

  auto run = [&](const CscMatrix& m, int devices, bool fan_both,
                 FactorStats* st) {
    SolverOptions opts;
    opts.factor.method = Method::kRL;
    opts.factor.exec = Execution::kGpuHybrid;
    opts.factor.cpu_workers = 8;
    opts.factor.gpu_streams = 4;
    opts.factor.gpu_devices = devices;
    opts.factor.gpu_threshold_rl = 1500;
    opts.factor.fan_both = fan_both;
    return factor_values(m, opts, st);
  };

  for (const int devices : {2, 4}) {
    SCOPED_TRACE("devices=" + std::to_string(devices));
    FactorStats rl, fb;
    const auto vrl = run(a, devices, false, &rl);
    const auto vfb = run(a, devices, true, &fb);
    expect_bitwise_equal(reference, vrl, "rl vs serial");
    expect_bitwise_equal(reference, vfb, "fan-both vs serial");
    EXPECT_GT(fb.aggregation_buffers, 0);
    EXPECT_GT(rl.cross_device_transfer_bytes, 0u);
    EXPECT_GT(fb.cross_device_transfer_bytes, 0u);
    EXPECT_LT(fb.cross_device_transfer_bytes, rl.cross_device_transfer_bytes);
    EXPECT_LT(fb.num_cross_device_transfers, rl.num_cross_device_transfers);
  }

  // nlpkkt80 analog at 2 and 4 devices: the separator-tree partition
  // plus the cooperative spine already make its sharding transfer-free
  // (every cross-shard target is a coop supernode, assembled on the
  // host from per-device slices). Fan-both must keep it that way —
  // never MORE transfer bytes — while still forming its buffers.
  const CscMatrix w = grid3d_wide(20, 20, 20, 2);
  SolverOptions wserial;
  wserial.factor.exec = Execution::kCpuSerial;
  const auto wreference = factor_values(w, wserial);
  for (const int devices : {2, 4}) {
    SCOPED_TRACE("wide devices=" + std::to_string(devices));
    FactorStats rl, fb;
    const auto vrl = run(w, devices, false, &rl);
    const auto vfb = run(w, devices, true, &fb);
    expect_bitwise_equal(wreference, vrl, "rl vs serial");
    expect_bitwise_equal(wreference, vfb, "fan-both vs serial");
    EXPECT_GT(fb.aggregation_buffers, 0);
    EXPECT_LE(fb.cross_device_transfer_bytes, rl.cross_device_transfer_bytes);
  }
}

TEST(FanBoth, RlbIgnoresFanBoth) {
  // fan_both is an RL plan shape; RLB must run its usual plan (no
  // aggregation nodes) and produce its usual bits.
  const CscMatrix a = grid3d_wide(6, 6, 6, 2);
  auto run = [&](bool fan_both, FactorStats* st) {
    SolverOptions opts;
    opts.factor.method = Method::kRLB;
    opts.factor.exec = Execution::kCpuParallel;
    opts.factor.cpu_workers = 4;
    opts.factor.fan_both = fan_both;
    return factor_values(a, opts, st);
  };
  FactorStats off, on;
  const auto voff = run(false, &off);
  const auto von = run(true, &on);
  expect_bitwise_equal(voff, von, "rlb fan_both on vs off");
  EXPECT_EQ(on.aggregation_buffers, 0);
  EXPECT_EQ(on.apply_nodes, 0);
}

}  // namespace
}  // namespace spchol
