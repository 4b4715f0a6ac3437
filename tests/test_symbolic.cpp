// SymbolicFactor properties: partition validity, exact row structures
// (against a brute-force elimination oracle), block coverage, merge cap,
// relative-index consistency — property-tested across matrix families and
// option combinations — plus option validation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "spchol/graph/ordering.hpp"
#include "spchol/matrix/generators.hpp"
#include "spchol/symbolic/etree.hpp"
#include "spchol/symbolic/symbolic_factor.hpp"

namespace spchol {
namespace {

struct SymCase {
  std::string name;
  CscMatrix a;
  AnalyzeOptions opts;
  OrderingMethod ordering;
};

std::vector<SymCase> make_cases() {
  std::vector<SymCase> cases;
  auto add = [&](std::string name, CscMatrix a, double cap, bool pr,
                 SupernodeMode mode, OrderingMethod om) {
    AnalyzeOptions o;
    o.merge_growth_cap = cap;
    o.partition_refinement = pr;
    o.supernode_mode = mode;
    cases.push_back({std::move(name), std::move(a), o, om});
  };
  add("grid2d_nd", grid2d_5pt(12, 12), 0.25, true, SupernodeMode::kMaximal,
      OrderingMethod::kNestedDissection);
  add("grid2d_nomerge", grid2d_5pt(12, 12), 0.0, false,
      SupernodeMode::kFundamental, OrderingMethod::kNestedDissection);
  add("grid3d_md", grid3d_7pt(5, 5, 5), 0.25, true,
      SupernodeMode::kMaximal, OrderingMethod::kMinimumDegree);
  add("grid3d_natural", grid3d_7pt(4, 4, 4), 0.25, false,
      SupernodeMode::kMaximal, OrderingMethod::kNatural);
  add("random_rcm", random_spd(120, 4, 3), 0.1, true,
      SupernodeMode::kFundamental, OrderingMethod::kRcm);
  add("dense", dense_spd(35, 5), 0.25, true, SupernodeMode::kMaximal,
      OrderingMethod::kNatural);
  add("vector_grid", grid3d_vector(3, 3, 3, 2), 0.25, true,
      SupernodeMode::kMaximal, OrderingMethod::kNestedDissection);
  add("grid2d_heavy_merge", grid2d_5pt(12, 12), 1.0, true,
      SupernodeMode::kMaximal, OrderingMethod::kNestedDissection);
  return cases;
}

/// Brute-force structure of L for the lower-triangle pattern `ap`:
/// l[i][j] != 0 iff L(i, j) is structurally nonzero (i >= j), by boolean
/// right-looking elimination.
std::vector<std::vector<char>> factor_pattern(const CscMatrix& ap) {
  const index_t n = ap.cols();
  std::vector<std::vector<char>> l(static_cast<std::size_t>(n),
                                   std::vector<char>(n, 0));
  for (index_t j = 0; j < n; ++j) {
    l[j][j] = 1;
    for (const index_t i : ap.col_rows(j)) l[i][j] = 1;
  }
  for (index_t k = 0; k < n; ++k) {
    std::vector<index_t> below;
    for (index_t i = k + 1; i < n; ++i) {
      if (l[i][k]) below.push_back(i);
    }
    for (std::size_t a = 0; a < below.size(); ++a) {
      for (std::size_t b = 0; b <= a; ++b) l[below[a]][below[b]] = 1;
    }
  }
  return l;
}

class SymbolicProperties : public ::testing::TestWithParam<int> {};

const std::vector<SymCase>& cases() {
  static const std::vector<SymCase> c = make_cases();
  return c;
}

TEST_P(SymbolicProperties, AllInvariants) {
  const SymCase& c = cases()[GetParam()];
  SCOPED_TRACE(c.name);
  const Permutation fill = compute_ordering(c.a, c.ordering);
  const SymbolicFactor sf = SymbolicFactor::analyze(c.a, fill, c.opts);
  const index_t n = c.a.cols();
  ASSERT_EQ(sf.n(), n);
  const index_t ns = sf.num_supernodes();

  // --- partition covers all columns contiguously ---
  index_t covered = 0;
  for (index_t s = 0; s < ns; ++s) {
    EXPECT_EQ(sf.sn_begin(s), covered);
    EXPECT_GT(sf.sn_width(s), 0);
    for (index_t j = sf.sn_begin(s); j < sf.sn_end(s); ++j) {
      EXPECT_EQ(sf.col_to_sn(j), s);
    }
    covered = sf.sn_end(s);
  }
  EXPECT_EQ(covered, n);

  // --- row structures: sorted, start with own columns, rows in range ---
  offset_t nnz = 0, values = 0;
  for (index_t s = 0; s < ns; ++s) {
    const auto rows = sf.sn_rows(s);
    const index_t w = sf.sn_width(s);
    ASSERT_GE(static_cast<index_t>(rows.size()), w);
    for (index_t k = 0; k < w; ++k) EXPECT_EQ(rows[k], sf.sn_begin(s) + k);
    for (std::size_t k = 1; k < rows.size(); ++k) {
      EXPECT_LT(rows[k - 1], rows[k]);
    }
    EXPECT_LT(rows.back(), n);
    nnz += static_cast<offset_t>(w) * rows.size() -
           static_cast<offset_t>(w) * (w - 1) / 2;
    values += static_cast<offset_t>(w) * rows.size();
  }
  EXPECT_EQ(nnz, sf.factor_nnz());
  EXPECT_EQ(values, sf.factor_values());

  // --- A's permuted pattern is contained in the structure ---
  const CscMatrix ap = c.a.permuted_sym_lower(sf.permutation());
  for (index_t j = 0; j < n; ++j) {
    const index_t s = sf.col_to_sn(j);
    for (const index_t i : ap.col_rows(j)) {
      EXPECT_GE(sf.row_position(s, i), 0)
          << "A(" << i << "," << j << ") outside structure";
    }
  }

  // --- exact structure: rows of s = its own columns ∪ the columns of L
  //     over s, restricted to rows >= its first column ---
  const auto l = factor_pattern(ap);
  for (index_t s = 0; s < ns; ++s) {
    std::vector<index_t> expect;
    for (index_t i = sf.sn_begin(s); i < n; ++i) {
      bool hit = i < sf.sn_end(s);
      for (index_t j = sf.sn_begin(s); !hit && j < sf.sn_end(s); ++j) {
        hit = j <= i && l[i][j];
      }
      if (hit) expect.push_back(i);
    }
    const auto rows = sf.sn_rows(s);
    EXPECT_EQ(std::vector<index_t>(rows.begin(), rows.end()), expect)
        << "supernode " << s;
  }

  // --- containment: below-rows of s within any ancestor's columns appear
  //     in that ancestor's structure; supernodal parent is the first
  //     below-row's supernode ---
  for (index_t s = 0; s < ns; ++s) {
    const auto rows = sf.sn_rows(s);
    const index_t w = sf.sn_width(s);
    if (static_cast<index_t>(rows.size()) == w) {
      EXPECT_EQ(sf.sn_parent(s), -1);
      continue;
    }
    EXPECT_EQ(sf.sn_parent(s), sf.col_to_sn(rows[w]));
    EXPECT_GT(sf.sn_parent(s), s);
    for (std::size_t k = w; k < rows.size(); ++k) {
      const index_t target = sf.col_to_sn(rows[k]);
      EXPECT_GE(sf.row_position(target, rows[k]), 0);
    }
  }

  // --- blocks tile the below rows exactly, in order, split at
  //     consecutive-run and target boundaries ---
  for (index_t s = 0; s < ns; ++s) {
    const auto rows = sf.sn_rows(s);
    const index_t w = sf.sn_width(s);
    index_t cursor = w;
    for (const SupernodeBlock& b : sf.sn_blocks(s)) {
      EXPECT_EQ(b.src_offset, cursor);
      EXPECT_GT(b.nrows, 0);
      for (index_t t = 0; t < b.nrows; ++t) {
        EXPECT_EQ(rows[cursor + t], b.first_row + t);  // consecutive
        EXPECT_EQ(sf.col_to_sn(rows[cursor + t]), b.target_sn);
      }
      // Block rows are consecutive inside the target's structure too.
      const index_t p0 = sf.row_position(b.target_sn, b.first_row);
      ASSERT_GE(p0, 0);
      const auto trows = sf.sn_rows(b.target_sn);
      for (index_t t = 0; t < b.nrows; ++t) {
        EXPECT_EQ(trows[p0 + t], b.first_row + t);
      }
      cursor += b.nrows;
    }
    EXPECT_EQ(cursor, static_cast<index_t>(rows.size()));
  }

  // --- relative indices agree with row_position ---
  for (index_t s = 0; s < ns; ++s) {
    const index_t p = sf.sn_parent(s);
    if (p < 0) continue;
    const auto rel = sf.relative_indices(s, p);
    const auto rows = sf.sn_rows(s);
    const auto prows = sf.sn_rows(p);
    std::size_t k = rows.size() - rel.size();
    for (std::size_t t = 0; t < rel.size(); ++t, ++k) {
      EXPECT_EQ(prows[rel[t]], rows[k]);
    }
  }

  // --- flops and sizes are positive and consistent ---
  EXPECT_GT(sf.flops(), 0.0);
  EXPECT_GE(sf.max_sn_entries(), 1);
  EXPECT_LE(sf.max_sn_entries(), sf.factor_values());
}

INSTANTIATE_TEST_SUITE_P(Cases, SymbolicProperties,
                         ::testing::Range(0, 8), [](const auto& info) {
                           return cases()[info.param].name;
                         });

TEST(SymbolicMerge, RespectsGrowthCap) {
  const CscMatrix a = grid3d_7pt(6, 6, 6);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  AnalyzeOptions off;
  off.merge_growth_cap = 0.0;
  off.partition_refinement = false;
  const SymbolicFactor base = SymbolicFactor::analyze(a, fill, off);
  for (const double cap : {0.05, 0.25, 0.5}) {
    AnalyzeOptions on = off;
    on.merge_growth_cap = cap;
    const SymbolicFactor merged = SymbolicFactor::analyze(a, fill, on);
    EXPECT_LE(merged.factor_nnz(),
              static_cast<offset_t>((1.0 + cap) *
                                    static_cast<double>(base.factor_nnz())))
        << "cap " << cap;
    EXPECT_LE(merged.num_supernodes(), base.num_supernodes());
    EXPECT_GE(merged.factor_nnz(), base.factor_nnz());
  }
}

TEST(SymbolicMerge, HugeCapMergesAtLeastAsMuchAsLargeCap) {
  // A cap whose budget overflows offset_t saturates instead of wrapping
  // into a negative budget (which merged nothing).
  const CscMatrix a = grid2d_5pt(30, 30);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  AnalyzeOptions large;
  large.merge_growth_cap = 1e6;
  const SymbolicFactor ref = SymbolicFactor::analyze(a, fill, large);
  EXPECT_GT(ref.num_merges(), 0);
  for (const double cap : {1e17, 1e30, 1e300}) {
    AnalyzeOptions huge = large;
    huge.merge_growth_cap = cap;
    const SymbolicFactor sf = SymbolicFactor::analyze(a, fill, huge);
    EXPECT_GE(sf.num_merges(), ref.num_merges()) << "cap " << cap;
    EXPECT_LE(sf.num_supernodes(), ref.num_supernodes()) << "cap " << cap;
  }
}

TEST(SymbolicMerge, MergingReducesSupernodeCount) {
  const CscMatrix a = grid3d_7pt(6, 6, 6);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  AnalyzeOptions off, on;
  off.merge_growth_cap = 0.0;
  on.merge_growth_cap = 0.25;
  const auto s_off = SymbolicFactor::analyze(a, fill, off);
  const auto s_on = SymbolicFactor::analyze(a, fill, on);
  EXPECT_LT(s_on.num_supernodes(), s_off.num_supernodes());
  EXPECT_EQ(s_on.num_merges(),
            s_off.num_supernodes() - s_on.num_supernodes());
}

TEST(SymbolicMerge, MaximalModeNeverSplitsCoarserThanFundamental) {
  const CscMatrix a = grid3d_7pt(5, 5, 5);
  const Permutation fill =
      compute_ordering(a, OrderingMethod::kNestedDissection);
  AnalyzeOptions fo, mo;
  fo.merge_growth_cap = 0.0;
  fo.partition_refinement = false;
  fo.supernode_mode = SupernodeMode::kFundamental;
  mo = fo;
  mo.supernode_mode = SupernodeMode::kMaximal;
  const auto f = SymbolicFactor::analyze(a, fill, fo);
  const auto m = SymbolicFactor::analyze(a, fill, mo);
  EXPECT_LE(m.num_supernodes(), f.num_supernodes());
  EXPECT_EQ(m.factor_nnz(), f.factor_nnz());  // same structure, merged cols
}

TEST(Symbolic, ColumnCountHeightMatchesStructure) {
  // The structure-union path cross-checks against column counts internally
  // (SPCHOL_CHECK); analysis succeeding on a nontrivial matrix exercises
  // it. Also verify explicitly for the unmerged case.
  const CscMatrix a = random_spd(80, 5, 21);
  const Permutation fill = compute_ordering(a, OrderingMethod::kRcm);
  AnalyzeOptions o;
  o.merge_growth_cap = 0.0;
  o.partition_refinement = false;
  const SymbolicFactor sf = SymbolicFactor::analyze(a, fill, o);
  for (index_t s = 0; s < sf.num_supernodes(); ++s) {
    EXPECT_EQ(sf.sn_nrows(s), sf.col_counts()[sf.sn_begin(s)]);
  }
}

TEST(Symbolic, OptionValidation) {
  const CscMatrix a = grid2d_5pt(4, 4);
  const Permutation fill = compute_ordering(a, OrderingMethod::kNatural);
  AnalyzeOptions neg_cap;
  neg_cap.merge_growth_cap = -0.25;
  EXPECT_THROW(SymbolicFactor::analyze(a, fill, neg_cap), InvalidArgument);
  AnalyzeOptions nan_cap;
  nan_cap.merge_growth_cap = std::nan("");
  EXPECT_THROW(SymbolicFactor::analyze(a, fill, nan_cap), InvalidArgument);
  AnalyzeOptions neg_workers;
  neg_workers.workers = -2;
  EXPECT_THROW(SymbolicFactor::analyze(a, fill, neg_workers),
               InvalidArgument);
}

TEST(Symbolic, NonSquareErrorReportsDimensions) {
  // 3x2 lower-triangle-ish matrix: diagonal of each column only.
  const CscMatrix a(3, 2, {0, 1, 2}, {0, 1}, {1.0, 1.0});
  try {
    SymbolicFactor::analyze(a, Permutation::identity(2), {});
    FAIL() << "expected analyze to reject a non-square matrix";
  } catch (const Error& e) {
    EXPECT_NE(std::strstr(e.what(), "3x2"), nullptr)
        << "message should name the offending dimensions: " << e.what();
  }
}

TEST(Symbolic, EmptyMatrix) {
  const CscMatrix a(0, 0, {0}, {}, {});
  const SymbolicFactor sf =
      SymbolicFactor::analyze(a, Permutation::identity(0), {});
  EXPECT_EQ(sf.n(), 0);
  EXPECT_EQ(sf.num_supernodes(), 0);
  EXPECT_EQ(sf.factor_nnz(), 0);
}

TEST(Symbolic, SingletonMatrix) {
  const CscMatrix a(1, 1, {0, 1}, {0}, {4.0});
  const SymbolicFactor sf =
      SymbolicFactor::analyze(a, Permutation::identity(1), {});
  EXPECT_EQ(sf.num_supernodes(), 1);
  EXPECT_EQ(sf.factor_nnz(), 1);
  EXPECT_EQ(sf.sn_parent(0), -1);
}

TEST(Symbolic, MaxUpdateEntriesMatchesWidestBelow) {
  const CscMatrix a = grid3d_7pt(5, 5, 5);
  const SymbolicFactor sf = SymbolicFactor::analyze(
      a, compute_ordering(a, OrderingMethod::kNestedDissection), {});
  offset_t expect = 0;
  for (index_t s = 0; s < sf.num_supernodes(); ++s) {
    expect = std::max(expect, static_cast<offset_t>(sf.sn_below(s)) *
                                  sf.sn_below(s));
  }
  EXPECT_EQ(sf.max_update_entries(), expect);
}

}  // namespace
}  // namespace spchol
