// Topology-aware placement coverage: the per-pair link table
// (PerfModel::links, set through the `device` config of FactorOptions,
// SolveOptions or RuntimeOptions) and the two-phase device placement
// only reshape the MODELED
// timeline — factors and solves must stay bitwise identical to the
// uniform-topology single-device run at every preset × device count ×
// worker count × stream count; the placement pass must strictly reduce
// the modeled cross-shard traffic on an NVLink-islands box versus the
// order-of-partition placement, must never hurt the uniform preset, and
// malformed tables must be rejected at every entry point.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "spchol/core/internal.hpp"
#include "spchol/service/solver_runtime.hpp"
#include "test_util.hpp"

namespace spchol {
namespace {

std::vector<double> factor_values(const CscMatrix& a, Method m,
                                  const gpu::LinkTable& topology, int devices,
                                  int workers, int streams,
                                  offset_t threshold,
                                  FactorStats* stats = nullptr) {
  SolverOptions opts;
  opts.factor.method = m;
  opts.factor.exec = Execution::kGpuHybrid;
  opts.factor.cpu_workers = workers;
  opts.factor.gpu_streams = streams;
  opts.factor.gpu_devices = devices;
  opts.factor.gpu_threshold_rl = threshold;
  opts.factor.gpu_threshold_rlb = threshold;
  opts.factor.device.model.links = topology;
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

struct Preset {
  const char* name;
  gpu::LinkTable table;
};

std::vector<Preset> presets() {
  return {{"uniform", gpu::LinkTable::uniform(4)},
          {"nvlink2", gpu::LinkTable::nvlink_islands(4, 2)},
          {"nvlink4", gpu::LinkTable::nvlink_islands(4, 4)},
          {"pcie", gpu::LinkTable::pcie_tree(4)}};
}

class TopologyMethods : public ::testing::TestWithParam<Method> {};

TEST_P(TopologyMethods, FactorBitwiseAcrossTopologies) {
  // Placement only permutes which ordinal runs a shard and the link
  // table only reprices modeled transfers — neither may move a bit.
  const Method method = GetParam();
  const CscMatrix a = grid3d_vector(8, 8, 8, 3);
  const auto reference =
      factor_values(a, method, gpu::LinkTable{}, /*devices=*/1,
                    /*workers=*/1, /*streams=*/1, /*threshold=*/2000);
  for (const Preset& p : presets()) {
    for (const int devices : {1, 2, 4}) {
      for (const int workers : {1, 8}) {
        for (const int streams : {1, 4}) {
          const std::string what = std::string(p.name) +
                                   " devices=" + std::to_string(devices) +
                                   " workers=" + std::to_string(workers) +
                                   " streams=" + std::to_string(streams);
          const auto got = factor_values(a, method, p.table, devices,
                                         workers, streams, 2000);
          expect_bitwise_equal(reference, got, what);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RLAndRLB, TopologyMethods,
                         ::testing::Values(Method::kRL, Method::kRLB),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Topology, SolveBitwiseAcrossTopologies) {
  const CscMatrix a = grid3d_vector(8, 8, 8, 3);
  SolverOptions fo;
  fo.factor.method = Method::kRL;
  CholeskySolver solver(fo);
  solver.factorize(a);
  const CholeskyFactor& f = solver.factor();

  const index_t n = a.cols();
  const index_t nrhs = 8;
  std::vector<double> b(static_cast<std::size_t>(n) * nrhs);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.25 * static_cast<double>(i % 17);
  }
  std::vector<double> ref(b.size());
  f.solve_multi(b, ref, nrhs);

  for (const Preset& p : presets()) {
    for (const int devices : {1, 2, 4}) {
      for (const int workers : {1, 8}) {
        for (const int streams : {1, 4}) {
          SolveOptions o;
          o.exec = Execution::kGpuHybrid;
          o.workers = workers;
          o.gpu_streams = streams;
          o.gpu_devices = devices;
          o.gpu_threshold = 500;
          o.device.model.links = p.table;
          std::vector<double> x(b.size());
          f.solve_multi(b, x, nrhs, o);
          expect_bitwise_equal(
              ref, x,
              std::string(p.name) + " devices=" + std::to_string(devices) +
                  " workers=" + std::to_string(workers) +
                  " streams=" + std::to_string(streams));
        }
      }
    }
  }
}

TEST(Topology, PlacementReducesIslandTraffic) {
  // The tentpole claim: on an NVLink-islands-of-2 box at four devices,
  // the placement pass must strictly reduce the modeled cross-shard
  // traffic seconds of the partition versus PR 8's order-of-partition
  // ordinals — by >= 1.3x on this vector mesh (heavy sibling-shard
  // pairs land inside one island instead of straddling the slow
  // cross-island fabric).
  const CscMatrix a = grid3d_vector(14, 14, 14, 3);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  const SymbolicFactor symb =
      SymbolicFactor::analyze(a, fill, AnalyzeOptions{});
  FactorOptions fo;
  fo.method = Method::kRL;
  fo.exec = Execution::kGpuHybrid;
  fo.gpu_threshold_rl = 1500;
  const index_t ns = symb.num_supernodes();
  std::vector<char> on_gpu(static_cast<std::size_t>(ns), 0);
  for (index_t s = 0; s < ns; ++s) {
    on_gpu[s] = detail::supernode_on_gpu(symb, fo, s) ? 1 : 0;
  }
  const gpu::LinkTable islands = gpu::LinkTable::nvlink_islands(4, 2);
  gpu::PerfModel model;
  model.links = islands;
  const std::vector<index_t> naive =
      assign_devices(symb, on_gpu, 4, /*coop_spine=*/true, nullptr);
  const std::vector<index_t> placed =
      assign_devices(symb, on_gpu, 4, /*coop_spine=*/true, &islands);
  const double naive_s =
      modeled_cross_traffic_seconds(symb, on_gpu, naive, model);
  const double placed_s =
      modeled_cross_traffic_seconds(symb, on_gpu, placed, model);
  ASSERT_GT(naive_s, 0.0);
  ASSERT_GT(placed_s, 0.0);
  EXPECT_LT(placed_s, naive_s);
  EXPECT_GE(naive_s / placed_s, 1.3)
      << "naive=" << naive_s << " placed=" << placed_s;
  // Placement is a pure permutation of the shard ordinals: same shard
  // contents, same device count, no supernode gains or loses a device.
  ASSERT_EQ(naive.size(), placed.size());
  for (std::size_t s = 0; s < naive.size(); ++s) {
    EXPECT_EQ(naive[s] >= 0, placed[s] >= 0) << s;
    EXPECT_EQ(naive[s] == -1, placed[s] == -1) << s;
  }
}

TEST(Topology, UniformPresetNeverHurtsMakespan) {
  // The uniform preset prices every link at the flat model's rates, so
  // the placement permutation cannot change the makespan materially:
  // <= 1.01x of the no-topology (PR 8) run at every device count.
  for (const auto* mesh : {"vector", "wide"}) {
    const CscMatrix a = std::string(mesh) == "vector"
                            ? grid3d_vector(8, 8, 8, 3)
                            : grid3d_wide(12, 12, 12, 2);
    for (const int devices : {2, 4}) {
      FactorStats flat;
      FactorStats uniform;
      const auto ref =
          factor_values(a, Method::kRL, gpu::LinkTable{}, devices,
                        /*workers=*/8, /*streams=*/4, 2000, &flat);
      const auto got = factor_values(a, Method::kRL,
                                     gpu::LinkTable::uniform(4), devices,
                                     /*workers=*/8, /*streams=*/4, 2000,
                                     &uniform);
      expect_bitwise_equal(ref, got, "uniform preset bits");
      ASSERT_GT(flat.modeled_seconds, 0.0);
      EXPECT_LE(uniform.modeled_seconds / flat.modeled_seconds, 1.01)
          << mesh << " devices=" << devices
          << " flat=" << flat.modeled_seconds
          << " uniform=" << uniform.modeled_seconds;
    }
  }
}

TEST(Topology, PerLinkStatsSumToAggregates) {
  // FactorStats::per_link is an exact breakdown of the aggregate
  // cross-device counters: same bytes, same seconds, same hop count,
  // one row per (src, dst) pair that actually carried traffic.
  const CscMatrix a = grid3d_vector(14, 14, 14, 3);
  FactorStats st;
  factor_values(a, Method::kRL, gpu::LinkTable::nvlink_islands(4, 2),
                /*devices=*/4, /*workers=*/8, /*streams=*/4,
                /*threshold=*/1500, &st);
  ASSERT_GT(st.num_cross_device_transfers, 0u);
  ASSERT_FALSE(st.per_link.empty());
  std::size_t bytes = 0;
  std::size_t transfers = 0;
  double seconds = 0.0;
  for (const LinkTransfer& lt : st.per_link) {
    EXPECT_NE(lt.src, lt.dst);
    EXPECT_GE(lt.src, 0);
    EXPECT_LT(lt.src, 4);
    EXPECT_GE(lt.dst, 0);
    EXPECT_LT(lt.dst, 4);
    EXPECT_GT(lt.transfers, 0u);
    EXPECT_GT(lt.bytes, 0u);
    EXPECT_GT(lt.seconds, 0.0);
    bytes += lt.bytes;
    transfers += lt.transfers;
    seconds += lt.seconds;
  }
  EXPECT_EQ(bytes, st.cross_device_transfer_bytes);
  EXPECT_EQ(transfers, st.num_cross_device_transfers);
  EXPECT_NEAR(seconds, st.cross_device_assembly_seconds,
              1e-12 * seconds + 1e-15);
  // Single-device runs carry no breakdown at all.
  FactorStats single;
  factor_values(a, Method::kRL, gpu::LinkTable::uniform(4), /*devices=*/1,
                /*workers=*/4, /*streams=*/2, /*threshold=*/1500, &single);
  EXPECT_TRUE(single.per_link.empty());
}

TEST(Topology, DeviceLinksDrivePlacementAndPricing) {
  // The device config's link table alone must both place the shards
  // over the islands and price every hop on its own link. Rows are the
  // golden per-link breakdown of this run; order-of-partition placement
  // priced on the flat mesh routes the heaviest traffic 3 -> 0 instead.
  const CscMatrix a = grid3d_vector(14, 14, 14, 3);
  SolverOptions opts;
  opts.factor.method = Method::kRL;
  opts.factor.exec = Execution::kGpuHybrid;
  opts.factor.cpu_workers = 8;
  opts.factor.gpu_streams = 4;
  opts.factor.gpu_devices = 4;
  opts.factor.gpu_threshold_rl = 1500;
  opts.factor.device.model.links = gpu::LinkTable::nvlink_islands(4);
  CholeskySolver solver(opts);
  solver.factorize(a);
  const std::vector<LinkTransfer> want = {{0, 2, 369432, 3.9393e-05, 8},
                                          {1, 0, 3383400, 6.9778e-05, 39},
                                          {2, 0, 1371864, 0.000111161, 18},
                                          {3, 0, 1073784, 0.000113741, 23}};
  const std::vector<LinkTransfer>& got = solver.stats().per_link;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].src, want[k].src) << k;
    EXPECT_EQ(got[k].dst, want[k].dst) << k;
    EXPECT_EQ(got[k].bytes, want[k].bytes) << k;
    EXPECT_EQ(got[k].transfers, want[k].transfers) << k;
    EXPECT_NEAR(got[k].seconds, want[k].seconds, 1e-9 * want[k].seconds)
        << k;
  }
}

TEST(Topology, ValidatedEverywhere) {
  const CscMatrix a = grid2d_5pt(6, 6);
  auto too_small = gpu::LinkTable::uniform(2);
  auto asymmetric = gpu::LinkTable::uniform(4);
  asymmetric.gbytes_per_s[0 * 4 + 1] = 600.0;  // [1][0] left at 300
  auto dead_link = gpu::LinkTable::uniform(4);
  dead_link.gbytes_per_s[2 * 4 + 3] = 0.0;
  dead_link.gbytes_per_s[3 * 4 + 2] = 0.0;
  auto negative_latency = gpu::LinkTable::uniform(4);
  negative_latency.latency_s[0 * 4 + 3] = -1.0e-6;
  negative_latency.latency_s[3 * 4 + 0] = -1.0e-6;

  auto expect_factor_throw = [&](const gpu::LinkTable& t, int devices) {
    SolverOptions opts;
    opts.factor.gpu_devices = devices;
    opts.factor.device.model.links = t;
    CholeskySolver solver(opts);
    EXPECT_THROW(solver.factorize(a), InvalidArgument);
  };
  expect_factor_throw(too_small, 4);
  expect_factor_throw(asymmetric, 4);
  expect_factor_throw(dead_link, 4);
  expect_factor_throw(negative_latency, 4);

  {
    CholeskySolver solver;
    solver.factorize(a);
    SolveOptions o;
    o.gpu_devices = 4;
    o.device.model.links = too_small;
    std::vector<double> b(static_cast<std::size_t>(a.cols()), 1.0);
    std::vector<double> x(b.size());
    EXPECT_THROW(solver.factor().solve(b, x, o), InvalidArgument);
    o.device.model.links = asymmetric;
    EXPECT_THROW(solver.factor().solve(b, x, o), InvalidArgument);
  }
  {
    RuntimeOptions ro;
    ro.gpu_devices = 4;
    ro.device.model.links = too_small;
    EXPECT_THROW(SolverRuntime{ro}, InvalidArgument);
    ro.device.model.links = dead_link;
    EXPECT_THROW(SolverRuntime{ro}, InvalidArgument);
  }
  // A table bigger than gpu_devices is fine (spare ordinals idle), and
  // the presets themselves validate at their own size.
  {
    SolverOptions opts;
    opts.factor.gpu_devices = 2;
    opts.factor.device.model.links = gpu::LinkTable::pcie_tree(4);
    CholeskySolver solver(opts);
    EXPECT_NO_THROW(solver.factorize(a));
  }
}

}  // namespace
}  // namespace spchol
