// Supernode partition detection.
//
// The paper (§I) defines a supernode as "a set of columns of the factor
// matrix that have the same sparsity structure" — the MAXIMAL definition,
// which the Figure 1 example requires (its J3 = {5,6,7} has an incoming
// child at its middle column). The FUNDAMENTAL definition
// (Liu–Ng–Peyton 1993) additionally requires each non-leading column to
// have exactly one etree child; it yields a finer partition.
#pragma once

#include <vector>

#include "spchol/support/common.hpp"

namespace spchol {

enum class SupernodeMode {
  kFundamental,  ///< parent chain + single child + cc decrement
  kMaximal,      ///< parent chain + cc decrement (same structure)
};

/// Returns supernode boundaries sn_first of size ns+1 (supernode s spans
/// columns [sn_first[s], sn_first[s+1])). Requires a postordered etree.
/// Column j+1 extends the supernode of j iff parent[j] == j+1,
/// cc[j+1] == cc[j] - 1, and (fundamental mode only) j is the only child
/// of j+1.
std::vector<index_t> supernode_partition(const std::vector<index_t>& parent,
                                         const std::vector<index_t>& cc,
                                         SupernodeMode mode);

/// Backward-compatible helper: fundamental partition.
inline std::vector<index_t> fundamental_supernodes(
    const std::vector<index_t>& parent, const std::vector<index_t>& cc) {
  return supernode_partition(parent, cc, SupernodeMode::kFundamental);
}

/// Inverse of sn_first: col2sn[j] = supernode containing column j.
std::vector<index_t> map_columns_to_supernodes(
    const std::vector<index_t>& sn_first);

/// Supernodal elimination-tree parents derived WITHOUT the supernodal row
/// structures: within a supernode the etree parent chain is consecutive
/// (the partition requires parent[j-1] == j), so the first below-diagonal
/// row of supernode s is parent[last column of s], and the supernodal
/// parent is that row's supernode. A supernode whose leading column count
/// equals its width has no below rows (parent -1). This tree feeds the
/// supernode merge, which runs on the column counts BEFORE any row
/// structure exists; the row-structure pass cross-checks the merged tree
/// against the structures it builds.
std::vector<index_t> supernode_parents(const std::vector<index_t>& sn_first,
                                       const std::vector<index_t>& col2sn,
                                       const std::vector<index_t>& parent,
                                       const std::vector<index_t>& cc);

}  // namespace spchol
