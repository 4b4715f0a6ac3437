// Elimination tree (Liu 1990), postorder utilities, and the subtree
// partitioner behind the scheduler's partitioned ready queues. All
// CscMatrix-taking functions operate on the lower triangle of a
// symmetric matrix; the *_upper variants take the transposed (row-wise)
// pattern directly so symbolic analysis, which already holds both
// triangles, skips the internal transpose.
#pragma once

#include <span>
#include <vector>

#include "spchol/matrix/csc.hpp"
#include "spchol/support/permutation.hpp"

namespace spchol {

/// parent[j] = etree parent of column j, -1 for roots.
std::vector<index_t> elimination_tree(const CscMatrix& lower);

/// elimination_tree taking the UPPER triangle by column (row i of the
/// lower triangle = column i here), as (colptr, rowind) pattern arrays.
std::vector<index_t> elimination_tree_upper(index_t n,
                                            std::span<const offset_t> uptr,
                                            std::span<const index_t> uind);

/// Depth-first postorder of the forest; children are visited in increasing
/// vertex order, so an already-postordered tree maps to the identity.
/// Returned as a Permutation (new_to_old).
Permutation tree_postorder(const std::vector<index_t>& parent);

/// Relabels parent[] under a permutation of the vertices:
/// result[perm.old_to_new(j)] = perm.old_to_new(parent[j]).
std::vector<index_t> relabel_tree(const std::vector<index_t>& parent,
                                  const Permutation& perm);

/// True iff every non-root vertex has parent[j] > j and every child appears
/// before its parent contiguously per subtree (postorder check used by
/// tests and internal assertions).
bool is_postordered(const std::vector<index_t>& parent);

/// Column counts of the Cholesky factor L (diagonal included): cc[j] =
/// |{i >= j : L(i,j) != 0}|. Uses row-subtree traversals, O(|L|) total.
std::vector<index_t> column_counts(const CscMatrix& lower,
                                   const std::vector<index_t>& parent);

/// column_counts taking the UPPER triangle by column (row i of the lower
/// triangle = column i here), as (colptr, rowind) pattern arrays.
std::vector<index_t> column_counts_upper(std::span<const offset_t> uptr,
                                         std::span<const index_t> uind,
                                         const std::vector<index_t>& parent);

/// Number of etree children per vertex.
std::vector<index_t> child_counts(const std::vector<index_t>& parent);

/// Partitions the vertices of a POSTORDERED forest into `nparts` groups
/// of whole subtrees with roughly equal vertex counts: maximal subtrees
/// no larger than ceil(n / nparts) are packed greedily in postorder, and
/// every vertex above that cut (the roots' "spine", whose subtrees were
/// too big) joins the partition of its last descendant. Used to assign
/// scheduler ready-queue partitions: vertices of one group form whole
/// subtrees, so their tasks depend only on tasks of the same group (plus
/// the spine). Deterministic; returns all zeros for nparts <= 1.
std::vector<index_t> subtree_partition(const std::vector<index_t>& parent,
                                       index_t nparts);

}  // namespace spchol
