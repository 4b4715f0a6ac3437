// The cost replay (core/replay.*): the unit cases of its stream, pair,
// compute-engine, dependency, makespan and overlap rules over hand-built
// records, and
// the determinism of every modeled number of a real factorization across
// worker counts and repeated runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "spchol/core/replay.hpp"
#include "spchol/gpu/blas.hpp"
#include "test_util.hpp"

namespace spchol {
namespace {

using namespace gpu;

/// Replays `records` as independent nodes (edges optional) on `lanes`
/// CPU lanes and `pairs` stream pairs of one device.
FactorStats replay_nodes(const std::vector<OpRecord>& records,
                         std::size_t lanes, std::size_t pairs,
                         std::vector<std::pair<std::size_t, std::size_t>>
                             edges = {}) {
  TaskGraph g;
  for (std::size_t i = 0; i < records.size(); ++i) {
    g.priority.push_back(i);
    g.succ.emplace_back();
  }
  for (const auto& [from, to] : edges) g.succ[from].push_back(to);
  FactorStats st;
  detail::replay(g, records, {lanes, pairs}, st);
  return st;
}

TEST(Replay, FifoOnOneStream) {
  // Two async uploads on one stream serialize; a synchronous one makes
  // the host wait for it.
  Device dev;
  const std::size_t count = 1000;
  DeviceBuffer buf(dev, count);
  std::vector<double> host(count, 1.0);
  const double dur = dev.model().h2d_seconds(count * 8.0);
  const double issue = dev.model().issue_overhead;
  std::vector<OpRecord> rec(1);
  const Stream s{&rec[0]};
  copy_h2d(dev, s, buf, 0, host.data(), count, /*async=*/true);
  copy_h2d(dev, s, buf, 0, host.data(), count, /*async=*/true);
  FactorStats st = replay_nodes(rec, 1, 1);
  EXPECT_DOUBLE_EQ(st.modeled_seconds, issue + 2 * dur);
  EXPECT_DOUBLE_EQ(st.h2d_seconds, 2 * dur);
  EXPECT_EQ(st.h2d_bytes, 2 * count * 8);

  // A successor starts when the host part ends: after the async ops were
  // issued, or after a synchronous op completed.
  std::vector<OpRecord> chain(2);
  copy_h2d(dev, Stream{&chain[0]}, buf, 0, host.data(), count, true);
  chain[1].push_back({OpKind::kCpuBlas, Role::kCompute, -1, 0.0, 1.0});
  st = replay_nodes(chain, 1, 1, {{0, 1}});
  EXPECT_DOUBLE_EQ(st.modeled_seconds, issue + 1.0);
  chain[0].clear();
  copy_h2d(dev, Stream{&chain[0]}, buf, 0, host.data(), count, false);
  st = replay_nodes(chain, 1, 1, {{0, 1}});
  EXPECT_DOUBLE_EQ(st.modeled_seconds, issue + dur + 1.0);
}

TEST(Replay, IndependentPairsOverlap) {
  // Kernels of independent nodes share the device's one compute engine:
  // on two pairs as on one they run one after the other. A kernel on one
  // pair overlaps an upload on the other; on one pair the upload waits
  // for the kernel. Uploads share the device's host link either way.
  Device dev;
  const std::size_t count = 1 << 16;
  DeviceBuffer buf(dev, count);
  std::vector<double> host(count, 2.0);
  const double issue = dev.model().issue_overhead;
  const double dur = dev.model().h2d_seconds(count * 8.0);
  std::vector<OpRecord> rec(2);
  zero_fill(dev, Stream{&rec[0]}, buf, 0, count);
  zero_fill(dev, Stream{&rec[1]}, buf, 0, count);
  const double kernel = rec[0][0].seconds;
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 2).modeled_seconds,
                   issue + 2 * kernel);
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 1).modeled_seconds,
                   issue + 2 * kernel);
  rec[1].clear();
  copy_h2d(dev, Stream{&rec[1]}, buf, 0, host.data(), count, true);
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 2).modeled_seconds,
                   issue + std::max(kernel, dur));
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 1).modeled_seconds,
                   issue + kernel + dur);
  rec[0].clear();
  copy_h2d(dev, Stream{&rec[0]}, buf, 0, host.data(), count, true);
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 2).modeled_seconds, issue + 2 * dur);
}

TEST(Replay, DependencyInsideOneNode) {
  // A copy that names the kernel it waits for starts when that kernel
  // ends; without the dependency it starts as soon as it is issued.
  Device dev;
  DeviceBuffer buf(dev, 4096);
  std::vector<double> host(4096);
  const double issue = dev.model().issue_overhead;
  const double d2h = dev.model().d2h_seconds(4096 * 8.0);
  auto node = [&](bool wait) {
    std::vector<OpRecord> rec(1);
    const Stream compute{&rec[0], Role::kCompute};
    const Stream copy{&rec[0], Role::kCopy};
    zero_fill(dev, compute, buf, 0, 4096);
    copy_d2h(dev, wait ? copy.waiting_for(compute.last()) : copy,
             host.data(), buf, 0, 4096, /*async=*/true);
    return rec;
  };
  std::vector<OpRecord> dep = node(true);
  const double kernel = dep[0][0].seconds;
  EXPECT_DOUBLE_EQ(replay_nodes(dep, 1, 1).modeled_seconds,
                   issue + kernel + d2h);
  EXPECT_DOUBLE_EQ(replay_nodes(node(false), 1, 1).modeled_seconds,
                   std::max(issue + kernel, 2 * issue + d2h));
}

TEST(Replay, MakespanIsMaxNotSum) {
  // CPU work and device work of independent nodes run concurrently: the
  // makespan joins them. An edge between the nodes serializes them.
  Device dev;
  const std::size_t count = 1 << 15;
  DeviceBuffer buf(dev, count);
  std::vector<double> host(count, 1.0);
  const double dur = dev.model().h2d_seconds(count * 8.0);
  const double issue = dev.model().issue_overhead;
  std::vector<OpRecord> rec(2);
  rec[0].push_back({OpKind::kCpuBlas, Role::kCompute, -1, 0.0, 0.25 * dur});
  copy_h2d(dev, Stream{&rec[1]}, buf, 0, host.data(), count, true);
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 1).modeled_seconds, issue + dur);
  rec[0][0].seconds = 2 * dur;
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 1).modeled_seconds, 2 * dur);
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 1, {{0, 1}}).modeled_seconds,
                   2 * dur + issue + dur);
}

TEST(Replay, OverlapAccumulates) {
  // Overlap is time one stream works while another still has work: none
  // for a lone kernel, none for two kernels (they never share the compute
  // engine), and all of the shorter of a kernel on one pair and an upload
  // on the other. On one pair the upload waits for the kernel instead.
  Device dev;
  const std::size_t count = 1 << 15;
  DeviceBuffer buf(dev, count);
  std::vector<double> host(count, 1.0);
  const double dur = dev.model().h2d_seconds(count * 8.0);
  std::vector<OpRecord> rec(1);
  zero_fill(dev, Stream{&rec[0]}, buf, 0, count);
  const double kernel = rec[0][0].seconds;
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 1, 2).gpu_overlap_seconds, 0.0);
  rec.emplace_back();
  zero_fill(dev, Stream{&rec[1]}, buf, 0, count);
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 2).gpu_overlap_seconds, 0.0);
  rec[1].clear();
  copy_h2d(dev, Stream{&rec[1]}, buf, 0, host.data(), count, true);
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 2).gpu_overlap_seconds,
                   std::min(kernel, dur));
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 2, 1).gpu_overlap_seconds, 0.0);
}

TEST(Replay, TrailingWaitsFreeTheLane) {
  // A node that only waits for its device work does not hold its CPU
  // lane: an independent CPU node starts on the one lane meanwhile.
  Device dev;
  const std::size_t count = 1 << 16;
  DeviceBuffer buf(dev, count);
  std::vector<double> host(count, 1.0);
  const double issue = dev.model().issue_overhead;
  const double dur = dev.model().h2d_seconds(count * 8.0);
  std::vector<OpRecord> rec(2);
  copy_h2d(dev, Stream{&rec[0]}, buf, 0, host.data(), count, false);
  rec[1].push_back({OpKind::kCpuBlas, Role::kCompute, -1, 0.0, dur});
  EXPECT_DOUBLE_EQ(replay_nodes(rec, 1, 1).modeled_seconds, issue + dur);
}

/// The modeled numbers a run must reproduce bit for bit.
void expect_same_model(const FactorStats& want, const FactorStats& got) {
  EXPECT_EQ(got.modeled_seconds, want.modeled_seconds);
  EXPECT_EQ(got.gpu_overlap_seconds, want.gpu_overlap_seconds);
  EXPECT_EQ(got.gpu_kernel_seconds, want.gpu_kernel_seconds);
  EXPECT_EQ(got.h2d_seconds, want.h2d_seconds);
  EXPECT_EQ(got.d2h_seconds, want.d2h_seconds);
  EXPECT_EQ(got.num_gpu_kernels, want.num_gpu_kernels);
}

/// A 12^3 three-dof vector grid, analyzed once: a smaller cousin of the
/// bone010 analog of test_factor_gpu. At a 10,000-entry threshold some
/// of its supernodes run on the device and some on the CPU, on a full
/// 4-slot pool, in well under half the time of a bone010-analog run —
/// the test below factors it 60 times, also under TSan.
struct VectorGrid {
  CscMatrix a = grid3d_vector(12, 12, 12, 3);
  SymbolicFactor symb =
      SymbolicFactor::analyze(a, compute_ordering(a, OrderingOptions{}));

  FactorStats hybrid(Method m, int workers) const {
    FactorOptions o;
    o.method = m;
    o.exec = Execution::kGpuHybrid;
    o.cpu_workers = workers;
    o.gpu_threshold_rl = 10'000;
    o.gpu_threshold_rlb = 10'000;
    return CholeskyFactor::factorize(a, symb, o).stats();
  }
};

TEST(Determinism, ModeledTimeIsBitIdenticalOverRuns) {
  const VectorGrid m;
  for (const Method method : {Method::kRL, Method::kRLB}) {
    for (const int workers : {1, 4, 8}) {
      SCOPED_TRACE(std::string(to_string(method)) +
                   " workers=" + std::to_string(workers));
      const FactorStats first = m.hybrid(method, workers);
      ASSERT_GT(first.supernodes_on_gpu, 0);
      ASSERT_LT(first.supernodes_on_gpu, first.total_supernodes);
      if (workers > 1) ASSERT_EQ(first.gpu_stream_pairs, 4);
      for (int run = 1; run < 10; ++run) {
        expect_same_model(first, m.hybrid(method, workers));
      }
    }
  }
}

}  // namespace
}  // namespace spchol
