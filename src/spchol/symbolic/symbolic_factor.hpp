// Supernodal symbolic analysis, one serial pass: permuted pattern +
// elimination tree + postorder → column counts → supernode partition
// (fundamental or maximal) and Ashcraft–Grimes supernode merging (greedy
// min-fill with a cumulative storage-growth cap, §IV.A of the paper), both
// on the column counts alone → row structures of the final supernodes →
// partition refinement (within-supernode column reordering, [11]) +
// per-supernode block lists (the units RLB issues DSYRK/DGEMM calls on).
// Analysis starts no thread.
#pragma once

#include <span>
#include <vector>

#include "spchol/matrix/csc.hpp"
#include "spchol/support/permutation.hpp"
#include "spchol/symbolic/supernodes.hpp"

namespace spchol {

struct AnalyzeOptions {
  /// Supernode merging stops when the cumulative growth of factor storage
  /// exceeds this fraction of the unmerged factor (paper: 25%).
  /// Set to 0 to disable merging. Negative (or non-finite) caps are
  /// rejected with InvalidArgument.
  double merge_growth_cap = 0.25;
  /// Reorder columns within supernodes to reduce block counts.
  bool partition_refinement = true;
  /// Initial partition: maximal (paper's same-structure definition) or
  /// fundamental (Liu–Ng–Peyton).
  SupernodeMode supernode_mode = SupernodeMode::kMaximal;
  /// Validated (negative values are rejected with InvalidArgument) but
  /// without effect: analysis is serial. Kept because existing callers
  /// set it.
  int workers = 0;
};

/// Throws InvalidArgument on invalid AnalyzeOptions: negative or
/// non-finite merge_growth_cap, or negative workers. analyze() calls
/// this itself; SolverService calls it at session creation so a bad
/// option set fails before any ordering work runs.
void validate(const AnalyzeOptions& opts);

/// Wall time of one analyze() call, per stage.
struct SymbolicStats {
  double total_seconds = 0.0;      ///< wall time of the whole analysis
  double etree_seconds = 0.0;      ///< permuted pattern + etree + postorder
  double count_seconds = 0.0;      ///< postorder pattern + column counts
  double supernode_seconds = 0.0;  ///< partition + merge + row structures
  double pattern_seconds = 0.0;    ///< refinement + relabel + finalization
};

/// A maximal run of consecutive below-diagonal rows of a supernode, split
/// at target-supernode boundaries: the unit of RLB's update calls. The
/// target column range of the update is first_row - sn_begin(target_sn).
struct SupernodeBlock {
  index_t first_row;  ///< global row index of the first row of the run
  index_t nrows;      ///< run length
  index_t target_sn;  ///< supernode whose columns contain these rows
  index_t src_offset; ///< position of first_row within the source row list
};

class SymbolicFactor {
 public:
  /// Analyzes PAPᵀ where A is given by its lower triangle and P by
  /// `fill_perm`. The final permutation (fill ∘ postorder ∘ PR) is
  /// available via permutation(); numeric factorization must permute A
  /// with exactly that permutation.
  static SymbolicFactor analyze(const CscMatrix& a_lower,
                                const Permutation& fill_perm,
                                const AnalyzeOptions& opts = {});

  // --- partition ---------------------------------------------------------
  index_t n() const noexcept { return n_; }
  index_t num_supernodes() const noexcept {
    return static_cast<index_t>(sn_first_.size()) - 1;
  }
  index_t sn_begin(index_t s) const { return sn_first_[s]; }
  index_t sn_end(index_t s) const { return sn_first_[s + 1]; }
  index_t sn_width(index_t s) const { return sn_first_[s + 1] - sn_first_[s]; }
  index_t col_to_sn(index_t j) const { return col_to_sn_[j]; }
  /// Supernodal elimination tree parent (-1 for roots).
  index_t sn_parent(index_t s) const { return sn_parent_[s]; }
  /// Children of s in the supernodal elimination tree, ascending.
  std::span<const index_t> sn_children(index_t s) const {
    return {sn_child_idx_.data() + sn_child_ptr_[s],
            static_cast<std::size_t>(sn_child_ptr_[s + 1] -
                                     sn_child_ptr_[s])};
  }
  /// Distinct supernodes receiving updates from s (ascending): the
  /// targets of s's below-diagonal rows, i.e. the out-dependencies of s
  /// in the numeric task graph. All targets are etree ancestors of s.
  std::vector<index_t> sn_update_targets(index_t s) const;

  // --- row structure ------------------------------------------------------
  /// Sorted row indices of supernode s; the first sn_width(s) entries are
  /// the supernode's own columns.
  std::span<const index_t> sn_rows(index_t s) const {
    return {row_idx_.data() + row_ptr_[s],
            static_cast<std::size_t>(row_ptr_[s + 1] - row_ptr_[s])};
  }
  index_t sn_nrows(index_t s) const {
    return static_cast<index_t>(row_ptr_[s + 1] - row_ptr_[s]);
  }
  index_t sn_below(index_t s) const { return sn_nrows(s) - sn_width(s); }
  /// Offset of supernode s in the dense value array (column-major
  /// sn_nrows × sn_width rectangle with leading dimension sn_nrows).
  offset_t sn_values_offset(index_t s) const { return data_ptr_[s]; }
  offset_t sn_entries(index_t s) const {
    return static_cast<offset_t>(sn_nrows(s)) * sn_width(s);
  }
  /// Position of global row `row` within sn s's row list; -1 if absent.
  index_t row_position(index_t s, index_t row) const;

  // --- blocks -------------------------------------------------------------
  std::span<const SupernodeBlock> sn_blocks(index_t s) const {
    return {blocks_.data() + block_ptr_[s],
            static_cast<std::size_t>(block_ptr_[s + 1] - block_ptr_[s])};
  }
  offset_t total_blocks() const noexcept {
    return static_cast<offset_t>(blocks_.size());
  }

  // --- global quantities ---------------------------------------------------
  const Permutation& permutation() const noexcept { return perm_; }
  /// Doubles to allocate for the factor (sum of supernode rectangles).
  offset_t factor_values() const noexcept { return factor_values_; }
  /// Logical nonzeros of L (trapezoids; includes merge-induced zeros).
  offset_t factor_nnz() const noexcept { return factor_nnz_; }
  /// Factorization flops (potrf + trsm + syrk of every supernode).
  double flops() const noexcept { return flops_; }
  /// Largest update matrix, in entries (below² of the widest supernode) —
  /// the RL scratch requirement and the quantity that can exhaust device
  /// memory (paper: nlpkkt120).
  offset_t max_update_entries() const noexcept { return max_update_entries_; }
  /// Largest supernode rectangle, in entries.
  offset_t max_sn_entries() const noexcept { return max_sn_entries_; }
  index_t num_merges() const noexcept { return num_merges_; }

  // --- diagnostics ---------------------------------------------------------
  /// Column etree of the postordered matrix (pre-PR labels).
  const std::vector<index_t>& etree() const noexcept { return etree_; }
  /// Factor column counts of the postordered matrix (pre-merge, pre-PR).
  const std::vector<index_t>& col_counts() const noexcept { return cc_; }

  /// Stage timers of the analyze() call that built this.
  const SymbolicStats& stats() const noexcept { return stats_; }

  /// Relative indices of src's rows inside target's row list: for every
  /// row r of src with r >= sn_begin(target) (in list order), the position
  /// of r in sn_rows(target). Throws if a row is absent (structure
  /// violation). Used by tests and by the RL assembly path.
  std::vector<index_t> relative_indices(index_t src, index_t target) const;

 private:
  index_t n_ = 0;
  Permutation perm_;
  std::vector<index_t> sn_first_;
  std::vector<index_t> col_to_sn_;
  std::vector<index_t> sn_parent_;
  std::vector<index_t> sn_child_ptr_;
  std::vector<index_t> sn_child_idx_;
  std::vector<offset_t> row_ptr_;
  std::vector<index_t> row_idx_;
  std::vector<offset_t> data_ptr_;
  std::vector<offset_t> block_ptr_;
  std::vector<SupernodeBlock> blocks_;
  offset_t factor_values_ = 0;
  offset_t factor_nnz_ = 0;
  double flops_ = 0.0;
  offset_t max_update_entries_ = 0;
  offset_t max_sn_entries_ = 0;
  index_t num_merges_ = 0;
  std::vector<index_t> etree_;
  std::vector<index_t> cc_;
  SymbolicStats stats_;
};

}  // namespace spchol
