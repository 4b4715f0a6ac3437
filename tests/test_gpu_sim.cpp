// Simulated device runtime: memory accounting + OOM, transfer data
// integrity, op counters and records, device BLAS numerics, the slot
// pool. The modeled time of recorded ops is test_replay.cpp's.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "spchol/dense/kernels.hpp"
#include "spchol/dense/reference.hpp"
#include "spchol/gpu/blas.hpp"
#include "spchol/support/rng.hpp"

namespace spchol::gpu {
namespace {

DeviceConfig small_config() {
  DeviceConfig cfg;
  cfg.memory_bytes = 1 << 20;  // 1 MiB
  return cfg;
}

TEST(DeviceMemory, AccountsAllocationsAndPeak) {
  Device dev(small_config());
  EXPECT_EQ(dev.mem_used(), 0u);
  {
    DeviceBuffer a(dev, 1000);
    EXPECT_EQ(dev.mem_used(), 8000u);
    {
      DeviceBuffer b(dev, 2000);
      EXPECT_EQ(dev.mem_used(), 24000u);
    }
    EXPECT_EQ(dev.mem_used(), 8000u);
  }
  EXPECT_EQ(dev.mem_used(), 0u);
  EXPECT_EQ(dev.mem_peak(), 24000u);
}

TEST(DeviceMemory, ThrowsOnExhaustionWithDetail) {
  Device dev(small_config());
  DeviceBuffer a(dev, 100000);  // 800 KB
  try {
    DeviceBuffer b(dev, 50000);  // 400 KB: over 1 MiB
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested(), 400000u);
    EXPECT_EQ(e.in_use(), 800000u);
    EXPECT_EQ(e.capacity(), std::size_t{1} << 20);
  }
  // The failed allocation must not leak accounting.
  EXPECT_EQ(dev.mem_used(), 800000u);
}

TEST(DeviceMemory, MoveTransfersOwnership) {
  Device dev(small_config());
  DeviceBuffer a(dev, 64);
  DeviceBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(dev.mem_used(), 64 * 8u);
  b.release();
  EXPECT_EQ(dev.mem_used(), 0u);
}

TEST(Transfers, RoundTripPreservesData) {
  Device dev;
  Stream s;
  Rng rng(5);
  std::vector<double> src(5000);
  for (auto& v : src) v = rng.uniform(-10, 10);
  DeviceBuffer buf(dev, 6000);
  copy_h2d(dev, s, buf, 500, src.data(), 5000, /*async=*/false);
  std::vector<double> dst(5000, 0.0);
  copy_d2h(dev, s, dst.data(), buf, 500, 5000, /*async=*/false);
  EXPECT_EQ(src, dst);
}

TEST(Transfers, OutOfRangeThrows) {
  Device dev;
  Stream s;
  DeviceBuffer buf(dev, 10);
  std::vector<double> host(20, 0.0);
  EXPECT_THROW(copy_h2d(dev, s, buf, 5, host.data(), 6, false), Error);
  EXPECT_THROW(copy_d2h(dev, s, host.data(), buf, 8, 3, false), Error);
}

TEST(Transfers, StatsAccumulate) {
  Device dev;
  Stream s;
  DeviceBuffer buf(dev, 100);
  std::vector<double> host(100, 1.0);
  copy_h2d(dev, s, buf, 0, host.data(), 100, false);
  copy_d2h(dev, s, host.data(), buf, 0, 50, false);
  EXPECT_EQ(dev.stats().num_h2d, 1u);
  EXPECT_EQ(dev.stats().num_d2h, 1u);
  EXPECT_EQ(dev.stats().h2d_bytes, 800u);
  EXPECT_EQ(dev.stats().d2h_bytes, 400u);
  // An unrecorded stream counts the ops and records no time; a recorded
  // one appends each op's modeled cost.
  OpRecord rec;
  copy_h2d(dev, Stream{&rec}, buf, 0, host.data(), 100, /*async=*/true);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec[0].kind, OpKind::kH2D);
  EXPECT_EQ(rec[0].bytes, 800u);
  EXPECT_DOUBLE_EQ(rec[0].seconds, dev.model().h2d_seconds(800));
  EXPECT_EQ(dev.stats().num_h2d, 2u);
}

TEST(DeviceBlas, KernelsMatchHostKernels) {
  Device dev;
  Stream s;
  Rng rng(9);
  const index_t n = 60, k = 40;
  std::vector<double> a(static_cast<std::size_t>(n) * k);
  for (auto& v : a) v = rng.uniform(-1, 1);
  std::vector<double> c_host(static_cast<std::size_t>(n) * n, 0.0);
  std::vector<double> c_dev(c_host);

  dense::syrk_lower_nt(n, k, a.data(), n, c_host.data(), n);

  DeviceBuffer abuf(dev, a.size());
  DeviceBuffer cbuf(dev, c_dev.size());
  copy_h2d(dev, s, abuf, 0, a.data(), a.size(), false);
  zero_fill(dev, s, cbuf, 0, c_dev.size());
  syrk_lower_nt(dev, s, n, k, abuf, 0, n, cbuf, 0, n);
  copy_d2h(dev, s, c_dev.data(), cbuf, 0, c_dev.size(), false);

  for (std::size_t i = 0; i < c_dev.size(); ++i) {
    EXPECT_EQ(c_dev[i], c_host[i]);  // bitwise: same deterministic kernels
  }
  EXPECT_EQ(dev.stats().num_kernels, 2u);  // zero_fill + syrk
}

TEST(DeviceBlas, PotrfThrowsOnIndefinite) {
  Device dev;
  Stream s;
  std::vector<double> a = {4.0, 2.0, 2.0, -9.0};  // 2x2, indefinite
  DeviceBuffer buf(dev, 4);
  copy_h2d(dev, s, buf, 0, a.data(), 4, false);
  EXPECT_THROW(potrf_lower(dev, s, 2, buf, 0, 2), NotPositiveDefinite);
}

TEST(DeviceBlas, FullFactorPanelOnDevice) {
  // potrf + trsm on a device panel reproduces the host result bitwise.
  Rng rng(11);
  const index_t w = 30, r = 90;
  std::vector<double> panel(static_cast<std::size_t>(r) * w);
  for (auto& v : panel) v = rng.uniform(-1, 1);
  for (index_t j = 0; j < w; ++j) panel[j + static_cast<std::size_t>(j) * r] = 50.0;
  std::vector<double> host_panel(panel);

  dense::potrf_lower(w, host_panel.data(), r);
  dense::trsm_right_lower_trans(r - w, w, host_panel.data(), r,
                                host_panel.data() + w, r);

  Device dev;
  Stream s;
  DeviceBuffer buf(dev, panel.size());
  copy_h2d(dev, s, buf, 0, panel.data(), panel.size(), false);
  potrf_lower(dev, s, w, buf, 0, r);
  trsm_right_lower_trans(dev, s, r - w, w, buf, 0, r, w, r);
  std::vector<double> out(panel.size());
  copy_d2h(dev, s, out.data(), buf, 0, out.size(), false);
  EXPECT_EQ(out, host_panel);
}

namespace {

/// Minimal pool slot: one device allocation.
struct TestSlot {
  DeviceBuffer buf;
  TestSlot(Device& dev, std::size_t count) : buf(dev, count) {}
};

}  // namespace

TEST(SlotPool, DegradesGracefullyUnderMemoryPressure) {
  DeviceConfig cfg;
  cfg.memory_bytes = 100'000;  // fits 3 slots of 4000 doubles (32 KB each)
  Device dev(cfg);
  SlotPool<TestSlot> pool(8, [&](std::size_t) {
    return std::make_unique<TestSlot>(dev, 4000);
  });
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(dev.mem_used(), 3u * 4000 * sizeof(double));
}

TEST(SlotPool, ThrowsWhenNotEvenOneSlotFits) {
  // A zero-slot pool would hang every acquire() forever; the
  // DeviceOutOfMemory (with its available-bytes report) must escape.
  DeviceConfig cfg;
  cfg.memory_bytes = 1 << 10;
  Device dev(cfg);
  try {
    SlotPool<TestSlot> pool(4, [&](std::size_t) {
      return std::make_unique<TestSlot>(dev, 4000);
    });
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested(), 4000 * sizeof(double));
    EXPECT_EQ(e.available(), std::size_t{1} << 10);
  }
}

TEST(SlotPool, LeasesHandOutDistinctSlotsAndRecycle) {
  Device dev;
  SlotPool<TestSlot> pool(2, [&](std::size_t) {
    return std::make_unique<TestSlot>(dev, 16);
  });
  ASSERT_EQ(pool.size(), 2u);
  TestSlot* first = nullptr;
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    EXPECT_NE(&*a, &*b);
    first = &*a;
  }
  // Both leases returned; the pool serves again.
  auto c = pool.acquire();
  auto d = pool.acquire();
  EXPECT_TRUE(&*c == first || &*d == first);
}

TEST(SlotPool, RankedSlotsHonourTheFitPredicate) {
  // Ranked capacities (8, 4, 2): leases are distinct, each satisfies its
  // fit predicate, and slot 0 fits every task.
  Device dev;
  const std::size_t caps[3] = {8, 4, 2};
  SlotPool<TestSlot> pool(3, [&](std::size_t k) {
    return std::make_unique<TestSlot>(dev, caps[k]);
  });
  ASSERT_EQ(pool.size(), 3u);
  auto fits = [](std::size_t need) {
    return [need](const TestSlot& s) { return s.buf.size() >= need; };
  };
  {
    auto a = pool.acquire(fits(3));
    auto b = pool.acquire(fits(3));
    EXPECT_NE(&*a, &*b);
    EXPECT_GE(a->buf.size(), 3u);
    EXPECT_GE(b->buf.size(), 3u);
    auto c = pool.acquire(fits(1));  // only slot 2 is left
    EXPECT_EQ(c->buf.size(), 2u);
  }
  auto big = pool.acquire(fits(8));  // only slot 0 qualifies
  EXPECT_EQ(big->buf.size(), 8u);
}

TEST(SlotPool, SmallestFitLeasesTheSmallestFreeSlotThatFits) {
  Device dev;
  const std::size_t caps[3] = {8, 4, 2};
  SlotPool<TestSlot> pool(3, [&](std::size_t k) {
    return std::make_unique<TestSlot>(dev, caps[k]);
  });
  auto fits = [](std::size_t need) {
    return [need](const TestSlot& s) { return s.buf.size() >= need; };
  };
  auto a = pool.acquire(fits(3), true);
  EXPECT_EQ(a->buf.size(), 4u);
  auto b = pool.acquire(fits(1), true);
  EXPECT_EQ(b->buf.size(), 2u);
  auto c = pool.acquire(fits(1), true);  // the smaller slots are leased
  EXPECT_EQ(c->buf.size(), 8u);
}

}  // namespace
}  // namespace spchol::gpu
