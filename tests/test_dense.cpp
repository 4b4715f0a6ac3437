// Dense kernels vs naive references, parameterized over shapes, plus
// bitwise serial/parallel agreement (the property the GPU simulation's
// determinism rests on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "spchol/dense/kernels.hpp"
#include "spchol/dense/reference.hpp"
#include "spchol/support/rng.hpp"

namespace spchol::dense {
namespace {

/// The crew the parallel kernels fork on: 7 threads + the caller, as wide
/// as the widest fork below.
WorkerCrew& shared_crew() {
  static WorkerCrew crew(7);
  return crew;
}

std::vector<double> random_matrix([[maybe_unused]] index_t rows,
                                  index_t cols, index_t ld,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> m(static_cast<std::size_t>(ld) * cols);
  for (auto& v : m) v = rng.uniform(-1.0, 1.0);
  return m;
}

std::vector<double> random_spd_dense(index_t n, index_t ld,
                                     std::uint64_t seed) {
  auto m = random_matrix(n, n, ld, seed);
  // Symmetrize the lower triangle's mirror and dominate the diagonal.
  for (index_t j = 0; j < n; ++j) {
    double sum = 0.0;
    for (index_t i = 0; i < n; ++i) {
      if (i != j) sum += std::abs(m[i + static_cast<std::size_t>(j) * ld]);
    }
    m[j + static_cast<std::size_t>(j) * ld] = sum + 1.0;
  }
  return m;
}

double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

// ---- GEMM ----------------------------------------------------------------

struct GemmShape {
  index_t m, n, k;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, MatchesReference) {
  const auto [m, n, k] = GetParam();
  const index_t lda = m + 3, ldb = n + 1, ldc = m + 2;
  const auto a = random_matrix(m, k, lda, 1);
  const auto b = random_matrix(n, k, ldb, 2);
  auto c1 = random_matrix(m, n, ldc, 3);
  auto c2 = c1;
  gemm_nt_minus(m, n, k, a.data(), lda, b.data(), ldb, c1.data(), ldc);
  ref::gemm_nt_minus(m, n, k, a.data(), lda, b.data(), ldb, c2.data(), ldc);
  EXPECT_LT(max_diff(c1, c2), 1e-10 * std::max<index_t>(k, 1));
}

TEST_P(GemmTest, ParallelBitwiseEqualsSerial) {
  const auto [m, n, k] = GetParam();
  const index_t lda = m, ldb = n, ldc = m;
  const auto a = random_matrix(m, k, lda, 4);
  const auto b = random_matrix(n, k, ldb, 5);
  auto c1 = random_matrix(m, n, ldc, 6);
  auto c2 = c1;
  gemm_nt_minus(m, n, k, a.data(), lda, b.data(), ldb, c1.data(), ldc);
  gemm_nt_minus_parallel(shared_crew(), 8, m, n, k, a.data(), lda,
                         b.data(), ldb, c2.data(), ldc);
  EXPECT_EQ(max_diff(c1, c2), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{5, 3, 2},
                      GemmShape{16, 16, 16}, GemmShape{33, 7, 129},
                      GemmShape{100, 1, 5}, GemmShape{1, 50, 260},
                      GemmShape{97, 101, 67}, GemmShape{200, 40, 300},
                      GemmShape{3, 3, 1000}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "_n" +
             std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

// ---- SYRK ----------------------------------------------------------------

struct SyrkShape {
  index_t n, k;
};

class SyrkTest : public ::testing::TestWithParam<SyrkShape> {};

TEST_P(SyrkTest, MatchesReferenceOnLowerTriangle) {
  const auto [n, k] = GetParam();
  const index_t lda = n + 1, ldc = n + 2;
  const auto a = random_matrix(n, k, lda, 7);
  auto c1 = random_matrix(n, n, ldc, 8);
  auto c2 = c1;
  syrk_lower_nt(n, k, a.data(), lda, c1.data(), ldc);
  ref::syrk_lower_nt(n, k, a.data(), lda, c2.data(), ldc);
  // Lower triangle must match; the strict upper must be untouched.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const std::size_t idx = i + static_cast<std::size_t>(j) * ldc;
      if (i >= j) {
        EXPECT_NEAR(c1[idx], c2[idx], 1e-10 * k) << i << "," << j;
      } else {
        EXPECT_EQ(c1[idx], c2[idx]) << "upper triangle touched";
      }
    }
  }
}

TEST_P(SyrkTest, ParallelBitwiseEqualsSerial) {
  const auto [n, k] = GetParam();
  const auto a = random_matrix(n, k, n, 9);
  auto c1 = random_matrix(n, n, n, 10);
  auto c2 = c1;
  syrk_lower_nt(n, k, a.data(), n, c1.data(), n);
  syrk_lower_nt_parallel(shared_crew(), 7, n, k, a.data(), n,
                         c2.data(), n);
  EXPECT_EQ(max_diff(c1, c2), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyrkTest,
    ::testing::Values(SyrkShape{1, 1}, SyrkShape{2, 9}, SyrkShape{17, 5},
                      SyrkShape{64, 64}, SyrkShape{65, 33},
                      SyrkShape{128, 20}, SyrkShape{150, 257},
                      SyrkShape{40, 1}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

// ---- TRSM ----------------------------------------------------------------

struct TrsmShape {
  index_t m, n;
};

class TrsmTest : public ::testing::TestWithParam<TrsmShape> {};

TEST_P(TrsmTest, MatchesReference) {
  const auto [m, n] = GetParam();
  auto l = random_spd_dense(n, n, 11);
  ref::potrf_lower(n, l.data(), n);
  auto b1 = random_matrix(m, n, m, 12);
  auto b2 = b1;
  trsm_right_lower_trans(m, n, l.data(), n, b1.data(), m);
  ref::trsm_right_lower_trans(m, n, l.data(), n, b2.data(), m);
  EXPECT_LT(max_diff(b1, b2), 1e-9);
}

TEST_P(TrsmTest, SolvesXLtEqualsB) {
  const auto [m, n] = GetParam();
  auto l = random_spd_dense(n, n, 13);
  ref::potrf_lower(n, l.data(), n);
  const auto b0 = random_matrix(m, n, m, 14);
  auto x = b0;
  trsm_right_lower_trans(m, n, l.data(), n, x.data(), m);
  // Check X·Lᵀ == B.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (index_t t = 0; t <= j; ++t) {
        s += x[i + static_cast<std::size_t>(t) * m] *
             l[j + static_cast<std::size_t>(t) * n];
      }
      EXPECT_NEAR(s, b0[i + static_cast<std::size_t>(j) * m], 1e-9);
    }
  }
}

TEST_P(TrsmTest, ParallelBitwiseEqualsSerial) {
  const auto [m, n] = GetParam();
  auto l = random_spd_dense(n, n, 15);
  ref::potrf_lower(n, l.data(), n);
  auto b1 = random_matrix(m, n, m, 16);
  auto b2 = b1;
  trsm_right_lower_trans(m, n, l.data(), n, b1.data(), m);
  trsm_right_lower_trans_parallel(shared_crew(), 6, m, n, l.data(), n,
                                  b2.data(), m);
  EXPECT_EQ(max_diff(b1, b2), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrsmTest,
    ::testing::Values(TrsmShape{1, 1}, TrsmShape{7, 3}, TrsmShape{64, 64},
                      TrsmShape{100, 65}, TrsmShape{201, 130},
                      TrsmShape{5, 96}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "_n" +
             std::to_string(info.param.n);
    });

// ---- POTRF ---------------------------------------------------------------

class PotrfTest : public ::testing::TestWithParam<index_t> {};

TEST_P(PotrfTest, MatchesReference) {
  const index_t n = GetParam();
  auto a1 = random_spd_dense(n, n + 1, 17);
  // Only the lower triangle is read; mirror it for the reference check.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      a1[j + static_cast<std::size_t>(i) * (n + 1)] =
          a1[i + static_cast<std::size_t>(j) * (n + 1)];
    }
  }
  auto a2 = a1;
  potrf_lower(n, a1.data(), n + 1);
  ref::potrf_lower(n, a2.data(), n + 1);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      EXPECT_NEAR(a1[i + static_cast<std::size_t>(j) * (n + 1)],
                  a2[i + static_cast<std::size_t>(j) * (n + 1)], 1e-9)
          << i << "," << j;
    }
  }
}

TEST_P(PotrfTest, ReconstructsA) {
  const index_t n = GetParam();
  const auto a0 = random_spd_dense(n, n, 18);
  auto l = a0;
  potrf_lower(n, l.data(), n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      double s = 0.0;
      for (index_t k = 0; k <= j; ++k) {
        s += l[i + static_cast<std::size_t>(k) * n] *
             l[j + static_cast<std::size_t>(k) * n];
      }
      EXPECT_NEAR(s, a0[i + static_cast<std::size_t>(j) * n], 1e-9);
    }
  }
}

TEST_P(PotrfTest, ParallelBitwiseEqualsSerial) {
  const index_t n = GetParam();
  auto a1 = random_spd_dense(n, n, 19);
  auto a2 = a1;
  potrf_lower(n, a1.data(), n);
  potrf_lower_parallel(shared_crew(), 8, n, a2.data(), n);
  EXPECT_EQ(max_diff(a1, a2), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfTest,
                         ::testing::Values(1, 2, 7, 63, 64, 65, 100, 192,
                                           257),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(Potrf, ThrowsOnIndefiniteWithColumnIndex) {
  auto a = random_spd_dense(80, 80, 20);
  a[70 + 70 * 80] = -1.0;  // break pivot 70 (second block)
  try {
    potrf_lower(80, a.data(), 80);
    FAIL() << "expected NotPositiveDefinite";
  } catch (const NotPositiveDefinite& e) {
    EXPECT_EQ(e.column(), 70);
  }
}

// ---- micro-tile edges, padding and band splits ---------------------------
//
// The update core works in micro-tiles of MR rows × NR columns (MR is 16,
// 8 or 4 and NR 8 or 4, by the compiled vector width) over k-blocks of 64.
// m in [16, 48) and n in [8, 16) cover every residue of m mod MR and n mod
// NR for all of them, and the k values cross the k-block boundary.

constexpr double kSentinel = -12345.5;

/// Column-major m×n with leading dimension ld > m: entries uniform in
/// [-1, 1], padding rows set to `pad`.
std::vector<double> padded_matrix(index_t m, index_t n, index_t ld,
                                  std::uint64_t seed, double pad) {
  auto v = random_matrix(m, n, ld, seed);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = m; i < ld; ++i) {
      v[i + static_cast<std::size_t>(j) * ld] = pad;
    }
  }
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DenseTiles, GemmEveryResidueStaysInsideC) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const index_t k : {3, 64, 65, 150}) {
    for (index_t m = 16; m < 48; ++m) {
      for (index_t n = 8; n < 16; ++n) {
        const index_t lda = m + 5, ldb = n + 3, ldc = m + 4;
        // NaN in A/B padding: any read outside the operands poisons C.
        const auto a = padded_matrix(m, k, lda, 31, nan);
        const auto b = padded_matrix(n, k, ldb, 32, nan);
        auto c1 = padded_matrix(m, n, ldc, 33, kSentinel);
        auto c2 = c1;
        gemm_nt_minus(m, n, k, a.data(), lda, b.data(), ldb, c1.data(), ldc);
        ref::gemm_nt_minus(m, n, k, a.data(), lda, b.data(), ldb, c2.data(),
                           ldc);
        for (index_t j = 0; j < n; ++j) {
          for (index_t i = 0; i < ldc; ++i) {
            const std::size_t idx = i + static_cast<std::size_t>(j) * ldc;
            if (i < m) {
              ASSERT_NEAR(c1[idx], c2[idx], 1e-12 * k)
                  << "m" << m << " n" << n << " k" << k << " (" << i << ","
                  << j << ")";
            } else {
              ASSERT_EQ(c1[idx], kSentinel)
                  << "m" << m << " n" << n << " k" << k << " wrote padding";
            }
          }
        }
      }
    }
  }
}

TEST(DenseTiles, SyrkEveryResidueWritesOnlyTheLowerTriangle) {
  for (const index_t k : {2, 64, 65, 140}) {
    for (index_t n = 1; n < 48; ++n) {
      const index_t lda = n + 3, ldc = n + 2;
      const auto a = padded_matrix(n, k, lda, 34,
                                   std::numeric_limits<double>::quiet_NaN());
      auto c1 = padded_matrix(n, n, ldc, 35, kSentinel);
      for (index_t j = 1; j < n; ++j) {
        for (index_t i = 0; i < j; ++i) {
          c1[i + static_cast<std::size_t>(j) * ldc] = kSentinel;
        }
      }
      auto c2 = c1;
      syrk_lower_nt(n, k, a.data(), lda, c1.data(), ldc);
      ref::syrk_lower_nt(n, k, a.data(), lda, c2.data(), ldc);
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < ldc; ++i) {
          const std::size_t idx = i + static_cast<std::size_t>(j) * ldc;
          if (i >= j && i < n) {
            ASSERT_NEAR(c1[idx], c2[idx], 1e-12 * k)
                << "n" << n << " k" << k << " (" << i << "," << j << ")";
          } else {
            ASSERT_EQ(c1[idx], kSentinel)
                << "n" << n << " k" << k << " wrote (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(DenseTiles, TrsmAndPotrfNeverWriteOutsideTheirTriangle) {
  for (const index_t n : {1, 17, 64, 65, 130}) {
    const index_t lda = n + 3;
    auto a = random_spd_dense(n, lda, 36);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < lda; ++i) {
        if (i < j || i >= n) {
          a[i + static_cast<std::size_t>(j) * lda] = kSentinel;
        }
      }
    }
    auto l = a;
    potrf_lower(n, l.data(), lda);
    auto lp = a;
    potrf_lower_parallel(shared_crew(), 4, n, lp.data(), lda);
    EXPECT_TRUE(same_bits(l, lp)) << "n" << n;
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < lda; ++i) {
        if (i < j || i >= n) {
          ASSERT_EQ(l[i + static_cast<std::size_t>(j) * lda], kSentinel)
              << "potrf n" << n << " wrote (" << i << "," << j << ")";
        }
      }
    }
    const index_t m = 37, ldb = m + 6;
    auto b = padded_matrix(m, n, ldb, 37, kSentinel);
    trsm_right_lower_trans(m, n, l.data(), lda, b.data(), ldb);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = m; i < ldb; ++i) {
        ASSERT_EQ(b[i + static_cast<std::size_t>(j) * ldb], kSentinel)
            << "trsm n" << n << " wrote padding";
      }
    }
  }
}

// Any row split of a call is bitwise equal to the whole call, whatever the
// split's alignment to micro-tiles and whichever path (packed or
// small-shape) each piece takes.
TEST(DenseTiles, RowBandsAreBitwiseEqualToTheWholeCall) {
  const index_t m = 203, n = 45, k = 150;
  const auto a = random_matrix(m, k, m, 41);
  const auto b = random_matrix(n, k, n, 42);
  const auto c0 = random_matrix(m, n, m, 43);
  auto whole = c0;
  gemm_nt_minus(m, n, k, a.data(), m, b.data(), n, whole.data(), m);
  // Bands of 3 and 5 rows take the small-shape path; 13, 29 and 153 are
  // not multiples of any micro-tile height.
  for (const std::vector<index_t>& cuts :
       {std::vector<index_t>{3, 16, 45, 203}, std::vector<index_t>{13, 203},
        std::vector<index_t>{29, 34, 187, 203},
        std::vector<index_t>{5, 153, 203}}) {
    auto banded = c0;
    index_t lo = 0;
    for (const index_t hi : cuts) {
      gemm_nt_minus(hi - lo, n, k, a.data() + lo, m, b.data(), n,
                    banded.data() + lo, m);
      lo = hi;
    }
    EXPECT_TRUE(same_bits(whole, banded)) << "first cut " << cuts.front();
  }
}

TEST(DenseTiles, SyrkColumnSplitsAreBitwiseEqualToTheWholeCall) {
  const index_t n = 157, k = 131;
  const auto a = random_matrix(n, k, n, 44);
  const auto c0 = random_matrix(n, n, n, 45);
  auto whole = c0;
  syrk_lower_nt(n, k, a.data(), n, whole.data(), n);
  for (const index_t j1 : {3, 21, 64, 150}) {
    // Triangle over [0, j1), the rectangle below it, triangle over [j1, n).
    auto split = c0;
    syrk_lower_nt(j1, k, a.data(), n, split.data(), n);
    gemm_nt_minus(n - j1, j1, k, a.data() + j1, n, a.data(), n,
                  split.data() + j1, n);
    syrk_lower_nt(n - j1, k, a.data() + j1, n,
                  split.data() + j1 + static_cast<std::size_t>(j1) * n, n);
    EXPECT_TRUE(same_bits(whole, split)) << "j1 " << j1;
  }
}

// Supernode-sized shapes through the parallel kernels, with row counts
// that leave a partial last tile in the last band.
TEST(DenseTiles, ParallelKernelsSplitLargeShapesBitwise) {
  WorkerCrew& crew = shared_crew();
  {
    const index_t m = 1013, n = 100, k = 200;
    const auto a = random_matrix(m, k, m, 46);
    const auto b = random_matrix(n, k, n, 47);
    auto c1 = random_matrix(m, n, m, 48);
    auto c2 = c1;
    gemm_nt_minus(m, n, k, a.data(), m, b.data(), n, c1.data(), m);
    gemm_nt_minus_parallel(crew, 8, m, n, k, a.data(), m, b.data(), n,
                           c2.data(), m);
    EXPECT_TRUE(same_bits(c1, c2)) << "gemm";
  }
  {
    const index_t n = 601, k = 200;
    const auto a = random_matrix(n, k, n, 49);
    auto c1 = random_matrix(n, n, n, 50);
    auto c2 = c1;
    syrk_lower_nt(n, k, a.data(), n, c1.data(), n);
    syrk_lower_nt_parallel(crew, 8, n, k, a.data(), n, c2.data(), n);
    EXPECT_TRUE(same_bits(c1, c2)) << "syrk";
  }
  {
    const index_t m = 1001, n = 200;
    auto l = random_spd_dense(n, n, 51);
    ref::potrf_lower(n, l.data(), n);
    auto b1 = random_matrix(m, n, m, 52);
    auto b2 = b1;
    trsm_right_lower_trans(m, n, l.data(), n, b1.data(), m);
    trsm_right_lower_trans_parallel(crew, 8, m, n, l.data(), n, b2.data(), m);
    EXPECT_TRUE(same_bits(b1, b2)) << "trsm";
  }
  {
    const index_t n = 901;
    const auto a0 = random_spd_dense(n, n, 53);
    auto a1 = a0, a2 = a0;
    potrf_lower(n, a1.data(), n);
    potrf_lower_parallel(crew, 8, n, a2.data(), n);
    EXPECT_TRUE(same_bits(a1, a2)) << "potrf";
  }
}

// Several callers fork on one crew at once, as scheduler tasks do: each
// thread's pack scratch is its own, so results stay bitwise equal to
// isolated serial calls.
TEST(DenseTiles, ConcurrentCallersOnTheSharedCrew) {
  const index_t m = 301, n = 77, k = 90;
  constexpr int kCallers = 3;
  std::vector<std::vector<double>> a, b, want, got;
  for (int t = 0; t < kCallers; ++t) {
    a.push_back(random_matrix(m, k, m, 60 + t));
    b.push_back(random_matrix(n, k, n, 70 + t));
    want.push_back(random_matrix(m, n, m, 80 + t));
    got.push_back(want.back());
    gemm_nt_minus(m, n, k, a[t].data(), m, b[t].data(), n, want[t].data(), m);
    syrk_lower_nt(n, k, b[t].data(), n, want[t].data(), m);
  }
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      gemm_nt_minus_parallel(shared_crew(), 4, m, n, k, a[t].data(), m,
                             b[t].data(), n, got[t].data(), m);
      syrk_lower_nt_parallel(shared_crew(), 4, n, k, b[t].data(), n,
                             got[t].data(), m);
    });
  }
  for (auto& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_TRUE(same_bits(want[t], got[t])) << "caller " << t;
  }
}

// ---- supernode solves ----------------------------------------------------
//
// The left-side solve on a supernode's r×w column block against an
// r×nrhs panel: both forms against the naive oracles, on the contiguous
// panel and through a row map into a larger, permuted y (the CPU sweep's
// layout), which must give the same bits.

/// The first w columns of the Cholesky factor of an r×r diagonally
/// dominant SPD matrix: a well-conditioned supernode block (ld r).
std::vector<double> supernode_block(index_t w, index_t r,
                                    std::uint64_t seed) {
  auto a = random_spd_dense(r, r, seed);
  ref::potrf_lower(r, a.data(), r);
  a.resize(static_cast<std::size_t>(r) * w);
  return a;
}

struct SolveShape {
  index_t w, below, nrhs;
};

class SupernodeSolveTest : public ::testing::TestWithParam<SolveShape> {};

TEST_P(SupernodeSolveTest, BothFormsMatchTheOracles) {
  const auto [w, below, nrhs] = GetParam();
  const index_t r = w + below;
  const auto l = supernode_block(w, r, 61);
  const auto y0 = random_matrix(r, nrhs, r, 62);
  for (const bool forward : {true, false}) {
    auto got = y0;
    auto want = y0;
    if (forward) {
      trsm_left_lower(w, 0, r, nrhs, l.data(), r, got.data(), r);
      ref::trsm_left_lower(w, r, nrhs, l.data(), r, want.data(), r);
    } else {
      trsm_left_lower_trans(w, r, nrhs, l.data(), r, got.data(), r);
      ref::trsm_left_lower_trans(w, r, nrhs, l.data(), r, want.data(), r);
    }
    EXPECT_LT(max_diff(got, want), 1e-10) << (forward ? "forward" : "trans");
  }
}

std::vector<SolveShape> solve_shapes() {
  std::vector<SolveShape> v;
  for (const index_t w : {1, 63, 64, 65, 300}) {
    for (const index_t below : {0, 37}) {
      for (const index_t nrhs : {1, 3, 8, 16, 17}) {
        v.push_back({w, below, nrhs});
      }
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Shapes, SupernodeSolveTest,
                         ::testing::ValuesIn(solve_shapes()),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param.w) +
                                  "_below" +
                                  std::to_string(info.param.below) + "_nrhs" +
                                  std::to_string(info.param.nrhs);
                         });

// A forward COMPUTE (the in-panel solve) followed by SCATTERs over row
// bands of the rows below is bitwise equal to the whole forward call, for
// a blocked width and a level-2 width.
TEST(DenseTiles, SolveUpdateRowBandsAreBitwiseEqualToTheWholeCall) {
  for (const index_t w : {150, 12}) {
    const index_t r = w + 203, nrhs = 9;
    const auto l = supernode_block(w, r, 63);
    const auto y0 = random_matrix(r, nrhs, r, 64);
    auto whole = y0;
    trsm_left_lower(w, 0, r, nrhs, l.data(), r, whole.data(), r);
    for (const std::vector<index_t>& cuts :
         {std::vector<index_t>{3, 16, 45, 203}, std::vector<index_t>{13, 203},
          std::vector<index_t>{29, 34, 187, 203}}) {
      auto banded = y0;
      trsm_left_lower(w, 0, w, nrhs, l.data(), r, banded.data(), r);
      index_t lo = w;
      for (const index_t cut : cuts) {
        trsm_left_lower(w, lo, w + cut, nrhs, l.data(), r, banded.data(),
                        r);
        lo = w + cut;
      }
      EXPECT_TRUE(same_bits(whole, banded))
          << "w " << w << " first cut " << cuts.front();
    }
  }
}

// Splitting the RHS panel into column groups (the scheduled solve's
// panels) is bitwise equal to the whole call, in both forms.
TEST(DenseTiles, SolveRhsColumnSplitsAreBitwiseEqualToTheWholeCall) {
  for (const index_t w : {150, 12}) {
    const index_t r = w + 41, nrhs = 17;
    const auto l = supernode_block(w, r, 65);
    const auto y0 = random_matrix(r, nrhs, r, 66);
    for (const bool forward : {true, false}) {
      auto run = [&](std::vector<double>& y, index_t q0, index_t q1) {
        double* yq = y.data() + static_cast<std::size_t>(q0) * r;
        if (forward) {
          trsm_left_lower(w, 0, r, q1 - q0, l.data(), r, yq, r);
        } else {
          trsm_left_lower_trans(w, r, q1 - q0, l.data(), r, yq, r);
        }
      };
      auto whole = y0;
      run(whole, 0, nrhs);
      for (const std::vector<index_t>& cuts :
           {std::vector<index_t>{3, 11, 17}, std::vector<index_t>{1, 9, 17},
            std::vector<index_t>{8, 16, 17}}) {
        auto split = y0;
        index_t q0 = 0;
        for (const index_t q1 : cuts) {
          run(split, q0, q1);
          q0 = q1;
        }
        EXPECT_TRUE(same_bits(whole, split))
            << "w " << w << (forward ? " forward" : " trans") << " first cut "
            << cuts.front();
      }
    }
  }
}

TEST(Kernels, FlopCounts) {
  EXPECT_DOUBLE_EQ(flops_gemm(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(flops_trsm(5, 4), 80.0);
  EXPECT_DOUBLE_EQ(flops_syrk(3, 2), 24.0);
  EXPECT_NEAR(flops_potrf(10), 1000.0 / 3.0 + 50.0, 1e-9);
}

TEST(Kernels, DegenerateDimensionsAreNoOps) {
  double x = 42.0;
  gemm_nt_minus(0, 1, 1, &x, 1, &x, 1, &x, 1);
  syrk_lower_nt(0, 1, &x, 1, &x, 1);
  trsm_right_lower_trans(0, 0, &x, 1, &x, 1);
  trsm_left_lower(0, 0, 0, 1, &x, 1, &x, 1);
  trsm_left_lower(1, 1, 1, 1, &x, 1, &x, 1);
  trsm_left_lower_trans(1, 1, 0, &x, 1, &x, 1);
  potrf_lower(0, &x, 1);
  EXPECT_EQ(x, 42.0);
}

}  // namespace
}  // namespace spchol::dense
