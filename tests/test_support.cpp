// WorkerCrew fork-join / parallel_for / Permutation / Rng unit tests.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "spchol/support/permutation.hpp"
#include "spchol/support/rng.hpp"
#include "spchol/support/worker_crew.hpp"

namespace spchol {
namespace {

TEST(CrewForkJoin, RunsEveryTaskExactlyOnce) {
  WorkerCrew crew(3);
  std::vector<std::atomic<int>> hits(257);
  crew.run(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CrewForkJoin, ZeroAndSingleTask) {
  WorkerCrew crew(2);
  crew.run(0, [&](std::size_t) { FAIL() << "no task expected"; });
  int count = 0;
  crew.run(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(CrewForkJoin, PropagatesException) {
  WorkerCrew crew(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(crew.run(64,
                        [&](std::size_t i) {
                          ran++;
                          if (i == 13) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The call returns only when every task is done, the failed one too.
  EXPECT_EQ(ran.load(), 64);
}

TEST(CrewForkJoin, ManyConsecutiveBatches) {
  WorkerCrew crew(7);
  std::atomic<long> sum{0};
  for (int rep = 0; rep < 200; ++rep) {
    crew.run(16, [&](std::size_t i) { sum += static_cast<long>(i); });
  }
  EXPECT_EQ(sum.load(), 200L * (15 * 16 / 2));
}

TEST(CrewForkJoin, NoThreadsRunsOnTheCaller) {
  WorkerCrew crew(0);
  EXPECT_EQ(crew.size(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  crew.run(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(CrewForkJoin, ConcurrentCallersShareTheCrew) {
  // Several threads fork on one crew at once, as scheduler tasks and
  // device kernels do: every batch completes with each task run once.
  WorkerCrew crew(2);
  std::vector<std::thread> callers;
  std::vector<std::atomic<long>> sums(4);
  for (std::size_t t = 0; t < sums.size(); ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        crew.run(8, [&](std::size_t i) { sums[t] += static_cast<long>(i); });
      }
    });
  }
  for (auto& c : callers) c.join();
  for (const auto& s : sums) EXPECT_EQ(s.load(), 50L * 28);
}

TEST(ParallelFor, CoversRangeWithoutOverlap) {
  WorkerCrew crew(5);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(crew, 0, 1000, 6, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RespectsGrain) {
  WorkerCrew crew(7);
  std::atomic<int> chunks{0};
  parallel_for(
      crew, 0, 100, 8,
      [&](index_t lo, index_t hi) {
        EXPECT_GE(hi - lo, 1);
        chunks++;
      },
      /*grain=*/50);
  EXPECT_LE(chunks.load(), 2);
}

TEST(ParallelFor, EmptyRange) {
  WorkerCrew crew(1);
  parallel_for(crew, 5, 5, 4,
               [&](index_t, index_t) { FAIL() << "empty range"; });
}

TEST(ParallelFor, SerialWhenOneThread) {
  WorkerCrew crew(3);
  std::vector<int> order;
  parallel_for(crew, 0, 10, 1, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) order.push_back(i);
  });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(Permutation, IdentityRoundTrip) {
  const Permutation p = Permutation::identity(7);
  for (index_t i = 0; i < 7; ++i) {
    EXPECT_EQ(p.new_to_old(i), i);
    EXPECT_EQ(p.old_to_new(i), i);
  }
}

TEST(Permutation, InverseComposesToIdentity) {
  const Permutation p(std::vector<index_t>{3, 1, 4, 0, 2});
  const Permutation q = Permutation::compose(p, p.inverse());
  for (index_t i = 0; i < 5; ++i) EXPECT_EQ(q.new_to_old(i), i);
}

TEST(Permutation, ComposeOrder) {
  // first = reverse, second = rotate-by-1.
  const Permutation first(std::vector<index_t>{2, 1, 0});
  const Permutation second(std::vector<index_t>{1, 2, 0});
  const Permutation r = Permutation::compose(first, second);
  // r[k] = first[second[k]]
  EXPECT_EQ(r.new_to_old(0), 1);
  EXPECT_EQ(r.new_to_old(1), 0);
  EXPECT_EQ(r.new_to_old(2), 2);
}

TEST(Permutation, RejectsInvalid) {
  EXPECT_THROW(Permutation(std::vector<index_t>{0, 0, 1}), Error);
  EXPECT_THROW(Permutation(std::vector<index_t>{0, 3}), Error);
  EXPECT_THROW(Permutation(std::vector<index_t>{-1, 0}), Error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 10; ++i) diff += a.next_u64() != b.next_u64();
  EXPECT_GT(diff, 5);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, IndexBounds) {
  Rng r(11);
  std::set<index_t> seen;
  for (int i = 0; i < 500; ++i) {
    const index_t v = r.next_index(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Check, ThrowsWithMessage) {
  try {
    SPCHOL_CHECK(1 == 2, "one is not two");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace spchol
