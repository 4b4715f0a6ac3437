// Symbolic analysis in one serial pass:
//
//   1. permuted pattern of A (fill order), elimination tree, postorder;
//   2. postordered pattern + factor column counts;
//   3. supernode partition and supernodal etree from the counts alone,
//      then greedy supernode merging (§IV.A) on those counts: a supernode
//      whose last column is l has width + cc[l] - 1 rows whether or not it
//      absorbed children, so the merge needs no row structure;
//   4. row structures of the FINAL supernodes only, bottom-up (own
//      columns ∪ A's columns ∪ the children's below-diagonal rows),
//      cross-checked against the counts and the supernodal parents;
//   5. partition refinement (within-supernode column reordering, [11]),
//      row relabeling, pointers, blocks and children lists.
//
// Patterns are built as BOTH triangles in one pass and never sorted: the
// etree, count and union consumers are order-independent within a
// column, and the supernodal row lists are sorted where they are built.
#include "spchol/symbolic/symbolic_factor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <string>
#include <utility>

#include "spchol/dense/kernels.hpp"
#include "spchol/support/timer.hpp"
#include "spchol/symbolic/etree.hpp"
#include "spchol/symbolic/partition_refinement.hpp"
#include "spchol/symbolic/supernodes.hpp"

namespace spchol {

namespace {

/// Trapezoid entry count of a supernode: w columns over r rows (r includes
/// the w diagonal rows).
offset_t trapezoid(offset_t w, offset_t r) {
  return w * r - w * (w - 1) / 2;
}

/// Pattern-only symmetric permutation B = PAPᵀ of a lower-triangle
/// pattern, as BOTH triangles: lower by column (for the structure
/// unions) and upper by column, i.e. lower by row (for the etree and
/// column-count traversals). Columns are not sorted.
struct PermutedPattern {
  std::vector<offset_t> lptr, uptr;
  std::vector<index_t> lind, uind;
};

PermutedPattern permute_pattern(index_t n, std::span<const offset_t> sptr,
                                std::span<const index_t> sind,
                                const Permutation& perm) {
  PermutedPattern b;
  b.lptr.assign(static_cast<std::size_t>(n) + 1, 0);
  b.uptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j = 0; j < n; ++j) {
    const index_t nj = perm.old_to_new(j);
    for (offset_t p = sptr[j]; p < sptr[j + 1]; ++p) {
      const index_t ni = perm.old_to_new(sind[p]);
      b.lptr[std::min(ni, nj) + 1]++;
      b.uptr[std::max(ni, nj) + 1]++;
    }
  }
  for (index_t j = 0; j < n; ++j) {
    b.lptr[j + 1] += b.lptr[j];
    b.uptr[j + 1] += b.uptr[j];
  }
  b.lind.resize(static_cast<std::size_t>(b.lptr[n]));
  b.uind.resize(static_cast<std::size_t>(b.uptr[n]));
  std::vector<offset_t> lcur(b.lptr.begin(), b.lptr.end() - 1);
  std::vector<offset_t> ucur(b.uptr.begin(), b.uptr.end() - 1);
  for (index_t j = 0; j < n; ++j) {
    const index_t nj = perm.old_to_new(j);
    for (offset_t p = sptr[j]; p < sptr[j + 1]; ++p) {
      const index_t ni = perm.old_to_new(sind[p]);
      b.lind[lcur[std::min(ni, nj)]++] = std::max(ni, nj);
      b.uind[ucur[std::max(ni, nj)]++] = std::min(ni, nj);
    }
  }
  return b;
}

/// A supernode partition and its supernodal etree.
struct Partition {
  std::vector<index_t> first;   // size ns + 1
  std::vector<index_t> parent;  // -1 for roots
  index_t merges = 0;
};

/// Greedy supernode merging (paper §IV.A): repeatedly merge the (child,
/// parent) pair that adds the least storage, where the child is the
/// supernode immediately preceding its parent in column order, until the
/// cumulative growth exceeds `cap` times the unmerged storage. Merging c
/// into s keeps s's last column, so s has width + cc[last] - 1 rows before
/// and after; merged-away parents resolve through a union-find.
Partition merge_supernodes(Partition p0, const std::vector<index_t>& cc,
                           double cap) {
  const index_t ns0 = static_cast<index_t>(p0.first.size()) - 1;
  if (cap <= 0.0 || ns0 <= 1) return p0;

  std::vector<index_t> first(p0.first.begin(), p0.first.end() - 1);
  std::vector<index_t> width(static_cast<std::size_t>(ns0));
  std::vector<offset_t> below(static_cast<std::size_t>(ns0));
  std::vector<index_t> prev(static_cast<std::size_t>(ns0));
  std::vector<index_t> absorbed_by(static_cast<std::size_t>(ns0));
  std::vector<char> alive(static_cast<std::size_t>(ns0), 1);
  std::vector<index_t> version(static_cast<std::size_t>(ns0), 0);
  offset_t base_storage = 0;
  for (index_t s = 0; s < ns0; ++s) {
    width[s] = p0.first[s + 1] - p0.first[s];
    below[s] = cc[p0.first[s + 1] - 1] - 1;
    prev[s] = s - 1;
    absorbed_by[s] = s;
    base_storage += trapezoid(width[s], width[s] + below[s]);
  }
  // Saturate: a cap large enough to overflow means "merge everything".
  const double want = cap * static_cast<double>(base_storage);
  const offset_t budget =
      want >= static_cast<double>(std::numeric_limits<offset_t>::max())
          ? std::numeric_limits<offset_t>::max()
          : static_cast<offset_t>(want);

  auto find = [&](index_t s) {
    while (absorbed_by[s] != s) {
      absorbed_by[s] = absorbed_by[absorbed_by[s]];
      s = absorbed_by[s];
    }
    return s;
  };
  auto parent_of = [&](index_t s) {
    return p0.parent[s] < 0 ? index_t{-1} : find(p0.parent[s]);
  };
  // Added storage (trapezoid metric) of merging c = prev(s) into s.
  auto merge_cost = [&](index_t c, index_t s) {
    const offset_t wc = width[c], ws = width[s];
    return trapezoid(wc + ws, wc + ws + below[s]) -
           trapezoid(wc, wc + below[c]) - trapezoid(ws, ws + below[s]);
  };

  struct Cand {
    offset_t cost;
    index_t s;  // parent node; child is prev(s)
    index_t ver_s, ver_c;
    bool operator>(const Cand& o) const { return cost > o.cost; }
  };
  std::priority_queue<Cand, std::vector<Cand>, std::greater<Cand>> heap;
  auto push_candidate = [&](index_t s) {
    if (s < 0 || !alive[s]) return;
    const index_t c = prev[s];
    if (c < 0 || !alive[c] || parent_of(c) != s) return;
    heap.push({merge_cost(c, s), s, version[s], version[c]});
  };
  for (index_t s = 0; s < ns0; ++s) push_candidate(s);

  index_t merges = 0;
  offset_t spent = 0;
  while (!heap.empty()) {
    const Cand cand = heap.top();
    heap.pop();
    const index_t s = cand.s;
    if (!alive[s]) continue;
    const index_t c = prev[s];
    if (c < 0 || !alive[c] || parent_of(c) != s) continue;
    if (cand.ver_s != version[s] || cand.ver_c != version[c]) {
      continue;  // stale: a fresher entry exists
    }
    if (cand.cost > budget - spent) break;
    spent += cand.cost;
    // Merge c into s: columns become [first[c], end of s).
    first[s] = first[c];
    width[s] += width[c];
    alive[c] = 0;
    absorbed_by[c] = s;
    prev[s] = prev[c];
    version[s]++;
    ++merges;
    // Refresh affected candidates: (prev(s), s) and (s, parent(s)).
    push_candidate(s);
    const index_t ps = parent_of(s);
    if (ps >= 0 && alive[ps] && prev[ps] == s) push_candidate(ps);
  }

  // Compact: surviving supernodes in column order.
  std::vector<index_t> new_id(static_cast<std::size_t>(ns0), -1);
  Partition out;
  out.merges = merges;
  for (index_t s = 0; s < ns0; ++s) {
    if (!alive[s]) continue;
    new_id[s] = static_cast<index_t>(out.first.size());
    out.first.push_back(first[s]);
  }
  out.first.push_back(p0.first.back());
  for (index_t s = 0; s < ns0; ++s) {
    if (!alive[s]) continue;
    const index_t ps = parent_of(s);
    out.parent.push_back(ps >= 0 ? new_id[ps] : -1);
  }
  return out;
}

}  // namespace

void validate(const AnalyzeOptions& opts) {
  if (!std::isfinite(opts.merge_growth_cap) || opts.merge_growth_cap < 0.0) {
    throw InvalidArgument(
        "AnalyzeOptions::merge_growth_cap must be finite and >= 0, got " +
        std::to_string(opts.merge_growth_cap));
  }
  if (opts.workers < 0) {
    throw InvalidArgument("AnalyzeOptions::workers must be >= 0, got " +
                          std::to_string(opts.workers));
  }
}

SymbolicFactor SymbolicFactor::analyze(const CscMatrix& a_lower,
                                       const Permutation& fill_perm,
                                       const AnalyzeOptions& opts) {
  SPCHOL_CHECK(a_lower.square(),
               "analyze requires a square matrix, got " +
                   std::to_string(a_lower.rows()) + "x" +
                   std::to_string(a_lower.cols()));
  SPCHOL_CHECK(fill_perm.size() == a_lower.cols(),
               "permutation size mismatch");
  validate(opts);

  SymbolicFactor sf;
  const index_t n = a_lower.cols();
  sf.n_ = n;
  if (n == 0) {
    sf.perm_ = Permutation::identity(0);
    sf.sn_first_ = {0};
    sf.row_ptr_ = {0};
    sf.data_ptr_ = {0};
    sf.block_ptr_ = {0};
    return sf;
  }
  SymbolicStats& stats = sf.stats_;
  const WallTimer total;

  // --- 1. etree + postorder -------------------------------------------------
  WallTimer t;
  Permutation post;
  PermutedPattern b2;  // the pattern in final (pre-refinement) labels
  {
    const PermutedPattern b1 =
        permute_pattern(n, a_lower.colptr(), a_lower.rowind(), fill_perm);
    const std::vector<index_t> parent1 =
        elimination_tree_upper(n, b1.uptr, b1.uind);
    post = tree_postorder(parent1);
    sf.etree_ = relabel_tree(parent1, post);
    SPCHOL_CHECK(is_postordered(sf.etree_), "postorder relabeling failed");
    stats.etree_seconds = t.seconds();

    // --- 2. column counts ---------------------------------------------------
    t.reset();
    b2 = permute_pattern(n, b1.lptr, b1.lind, post);
  }
  Permutation perm = Permutation::compose(fill_perm, post);
  sf.cc_ = column_counts_upper(b2.uptr, b2.uind, sf.etree_);
  b2.uptr = {};
  b2.uind = {};
  const std::vector<index_t>& cc = sf.cc_;
  stats.count_seconds = t.seconds();

  // --- 3. partition + merge on counts --------------------------------------
  t.reset();
  Partition part;
  part.first = supernode_partition(sf.etree_, cc, opts.supernode_mode);
  part.parent = supernode_parents(
      part.first, map_columns_to_supernodes(part.first), sf.etree_, cc);
  part = merge_supernodes(std::move(part), cc, opts.merge_growth_cap);
  const index_t ns = static_cast<index_t>(part.first.size()) - 1;
  sf.num_merges_ = part.merges;
  sf.sn_first_ = std::move(part.first);
  sf.sn_parent_ = std::move(part.parent);
  sf.col_to_sn_ = map_columns_to_supernodes(sf.sn_first_);

  // Children lists of the supernodal etree (CSR over ascending child
  // index): the bottom-up union below and the numeric task graph walk it.
  sf.sn_child_ptr_.assign(static_cast<std::size_t>(ns) + 1, 0);
  for (index_t s = 0; s < ns; ++s) {
    if (sf.sn_parent_[s] >= 0) sf.sn_child_ptr_[sf.sn_parent_[s] + 1]++;
  }
  for (index_t s = 0; s < ns; ++s) {
    sf.sn_child_ptr_[s + 1] += sf.sn_child_ptr_[s];
  }
  sf.sn_child_idx_.resize(static_cast<std::size_t>(sf.sn_child_ptr_[ns]));
  {
    std::vector<index_t> cursor(sf.sn_child_ptr_.begin(),
                                sf.sn_child_ptr_.end() - 1);
    for (index_t s = 0; s < ns; ++s) {
      if (sf.sn_parent_[s] >= 0) {
        sf.sn_child_idx_[cursor[sf.sn_parent_[s]]++] = s;
      }
    }
  }

  // --- 4. row structures of the final supernodes, bottom-up ----------------
  // Heights come from the counts, so the flat row array is laid out
  // before any row is known. Rows of s: its own columns ∪ the A-entries
  // of its columns ∪ the below-diagonal rows of its children (postorder
  // makes every child precede its parent).
  sf.row_ptr_.assign(static_cast<std::size_t>(ns) + 1, 0);
  for (index_t s = 0; s < ns; ++s) {
    sf.row_ptr_[s + 1] =
        sf.row_ptr_[s] + sf.sn_width(s) + cc[sf.sn_end(s) - 1] - 1;
  }
  sf.row_idx_.resize(static_cast<std::size_t>(sf.row_ptr_[ns]));
  {
    std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
    for (index_t s = 0; s < ns; ++s) {
      const index_t f = sf.sn_begin(s), l = sf.sn_end(s);
      index_t* const R = sf.row_idx_.data() + sf.row_ptr_[s];
      const offset_t height = sf.row_ptr_[s + 1] - sf.row_ptr_[s];
      offset_t k = 0;
      auto add = [&](index_t i) {
        if (mark[i] == s) return;
        mark[i] = s;
        SPCHOL_CHECK(k < height,
                     "supernode structure height disagrees with column count");
        R[k++] = i;
      };
      for (index_t j = f; j < l; ++j) add(j);
      for (index_t j = f; j < l; ++j) {
        for (offset_t p = b2.lptr[j]; p < b2.lptr[j + 1]; ++p) add(b2.lind[p]);
      }
      for (const index_t c : sf.sn_children(s)) {
        const auto Rc = sf.sn_rows(c);
        for (std::size_t q = sf.sn_width(c); q < Rc.size(); ++q) add(Rc[q]);
      }
      SPCHOL_CHECK(k == height,
                   "supernode structure height disagrees with column count");
      std::sort(R + (l - f), R + height);
      SPCHOL_CHECK(height > l - f ? sf.col_to_sn_[R[l - f]] == sf.sn_parent_[s]
                                  : sf.sn_parent_[s] == -1,
                   "supernodal etree parent disagrees with structure");
    }
  }
  b2 = {};
  stats.supernode_seconds = t.seconds();

  // --- 5. partition refinement + finalization ------------------------------
  t.reset();
  if (opts.partition_refinement) {
    // Restriction sets (one per descendant segment per target), in
    // globally DESCENDING size order: the large sets — whose contiguity
    // saves the most BLAS calls — are split least by the smaller ones.
    struct RSet {
      index_t target;
      std::vector<index_t> cols;  // target-local column ids
    };
    std::vector<RSet> rsets;
    for (index_t s = 0; s < ns; ++s) {
      const auto R = sf.sn_rows(s);
      std::size_t k = static_cast<std::size_t>(sf.sn_width(s));
      while (k < R.size()) {
        RSet rs;
        rs.target = sf.col_to_sn_[R[k]];
        while (k < R.size() && sf.col_to_sn_[R[k]] == rs.target) {
          rs.cols.push_back(R[k] - sf.sn_begin(rs.target));
          ++k;
        }
        if (static_cast<index_t>(rs.cols.size()) < sf.sn_width(rs.target)) {
          rsets.push_back(std::move(rs));
        }
      }
    }
    std::stable_sort(rsets.begin(), rsets.end(),
                     [](const RSet& a, const RSet& b) {
                       return a.cols.size() > b.cols.size();
                     });
    std::vector<std::vector<const RSet*>> by_target(
        static_cast<std::size_t>(ns));
    for (const RSet& rs : rsets) by_target[rs.target].push_back(&rs);

    // Keep the refined order only where it actually reduces the number of
    // row runs (refinement is a heuristic; on some problems — e.g. 2D
    // separators whose natural order is already consecutive — the
    // identity order is better).
    auto count_runs = [](const std::vector<index_t>& pos,
                         const std::vector<const RSet*>& sets) {
      offset_t runs = 0;
      for (const RSet* rs : sets) {
        std::vector<index_t> q;
        q.reserve(rs->cols.size());
        for (const index_t c : rs->cols) q.push_back(pos[c]);
        std::sort(q.begin(), q.end());
        for (std::size_t i = 0; i < q.size(); ++i) {
          runs += i == 0 || q[i] != q[i - 1] + 1;
        }
      }
      return runs;
    };
    std::vector<index_t> pr_n2o(static_cast<std::size_t>(n));
    for (index_t j = 0; j < n; ++j) pr_n2o[j] = j;
    for (index_t s = 0; s < ns; ++s) {
      if (by_target[s].empty()) continue;
      const index_t w = sf.sn_width(s);
      PartitionRefiner refiner(w);
      for (const RSet* rs : by_target[s]) refiner.refine(rs->cols);
      const auto& refined = refiner.order();
      std::vector<index_t> identity(static_cast<std::size_t>(w));
      std::vector<index_t> pos_refined(static_cast<std::size_t>(w));
      for (index_t k = 0; k < w; ++k) {
        identity[k] = k;
        pos_refined[refined[k]] = k;
      }
      if (count_runs(pos_refined, by_target[s]) <
          count_runs(identity, by_target[s])) {
        for (index_t k = 0; k < w; ++k) {
          pr_n2o[sf.sn_begin(s) + k] = sf.sn_begin(s) + refined[k];
        }
      }
    }
    const Permutation pr(std::move(pr_n2o));
    perm = Permutation::compose(perm, pr);
    // Relabel the below-diagonal rows and re-sort them; the diagonal rows
    // stay {first..end-1} because refinement permutes within supernodes.
    for (index_t s = 0; s < ns; ++s) {
      index_t* const R = sf.row_idx_.data() + sf.row_ptr_[s];
      const offset_t r = sf.row_ptr_[s + 1] - sf.row_ptr_[s];
      for (offset_t k = sf.sn_width(s); k < r; ++k) R[k] = pr.old_to_new(R[k]);
      std::sort(R + sf.sn_width(s), R + r);
    }
  }
  sf.perm_ = std::move(perm);

  sf.data_ptr_.assign(static_cast<std::size_t>(ns) + 1, 0);
  sf.block_ptr_.assign(static_cast<std::size_t>(ns) + 1, 0);
  for (index_t s = 0; s < ns; ++s) {
    const offset_t w = sf.sn_width(s);
    const offset_t r = sf.sn_nrows(s);
    sf.data_ptr_[s + 1] = sf.data_ptr_[s] + r * w;
    sf.factor_nnz_ += trapezoid(w, r);
    const offset_t below = r - w;
    sf.max_update_entries_ = std::max(sf.max_update_entries_, below * below);
    sf.max_sn_entries_ = std::max(sf.max_sn_entries_, r * w);
    sf.flops_ += dense::flops_potrf(static_cast<index_t>(w)) +
                 dense::flops_trsm(static_cast<index_t>(below),
                                   static_cast<index_t>(w)) +
                 dense::flops_syrk(static_cast<index_t>(below),
                                   static_cast<index_t>(w));
    // Blocks: maximal consecutive runs in the below-diagonal rows, split
    // at target supernode boundaries.
    const auto R = sf.sn_rows(s);
    for (std::size_t k = static_cast<std::size_t>(w); k < R.size();) {
      const index_t target = sf.col_to_sn_[R[k]];
      const std::size_t start = k;
      index_t prev_row = R[k];
      ++k;
      while (k < R.size() && R[k] == prev_row + 1 &&
             sf.col_to_sn_[R[k]] == target) {
        prev_row = R[k];
        ++k;
      }
      sf.blocks_.push_back({R[start], static_cast<index_t>(k - start),
                            target, static_cast<index_t>(start)});
    }
    sf.block_ptr_[s + 1] = static_cast<offset_t>(sf.blocks_.size());
  }
  sf.factor_values_ = sf.data_ptr_[ns];
  stats.pattern_seconds = t.seconds();
  stats.total_seconds = total.seconds();
  return sf;
}

std::vector<index_t> SymbolicFactor::sn_update_targets(index_t s) const {
  // Block targets are ascending (rows are sorted and supernode column
  // ranges are ordered), so deduplicating consecutive entries suffices.
  std::vector<index_t> targets;
  for (const auto& b : sn_blocks(s)) {
    if (targets.empty() || targets.back() != b.target_sn) {
      targets.push_back(b.target_sn);
    }
  }
  return targets;
}

index_t SymbolicFactor::row_position(index_t s, index_t row) const {
  const auto R = sn_rows(s);
  const auto it = std::lower_bound(R.begin(), R.end(), row);
  if (it == R.end() || *it != row) return -1;
  return static_cast<index_t>(it - R.begin());
}

std::vector<index_t> SymbolicFactor::relative_indices(index_t src,
                                                      index_t target) const {
  const auto rs = sn_rows(src);
  const auto rt = sn_rows(target);
  std::vector<index_t> rel;
  std::size_t t = 0;
  for (const index_t r : rs) {
    if (r < sn_begin(target)) continue;
    while (t < rt.size() && rt[t] < r) ++t;
    SPCHOL_CHECK(t < rt.size() && rt[t] == r,
                 "row of src supernode missing from target structure");
    rel.push_back(static_cast<index_t>(t));
  }
  return rel;
}

}  // namespace spchol
