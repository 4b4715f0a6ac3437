#include "spchol/symbolic/etree.hpp"

#include <algorithm>

namespace spchol {

std::vector<index_t> elimination_tree(const CscMatrix& lower) {
  SPCHOL_CHECK(lower.square(), "etree requires a square matrix");
  // Process entries (i, j), i > j, grouped by the larger index i. The lower
  // triangle stores column j with rows i >= j, which is exactly row i of
  // the upper triangle after transposition — walk columns of the lower
  // triangle and defer to the row index.
  //
  // Standard trick: iterate k over columns of the *upper* triangle, i.e.
  // over rows of the lower one. Build row-of-lower adjacency on the fly via
  // a transposed pattern.
  const CscMatrix upper = lower.transpose();  // upper triangle, by column
  return elimination_tree_upper(lower.cols(), upper.colptr(),
                                upper.rowind());
}

std::vector<index_t> elimination_tree_upper(index_t n,
                                            std::span<const offset_t> uptr,
                                            std::span<const index_t> uind) {
  std::vector<index_t> parent(static_cast<std::size_t>(n), -1);
  std::vector<index_t> ancestor(static_cast<std::size_t>(n), -1);
  for (index_t k = 0; k < n; ++k) {
    for (offset_t p = uptr[k]; p < uptr[k + 1]; ++p) {
      // Entry A(k, j0) with j0 <= k: walk from j0 towards the root,
      // compressing paths onto k.
      index_t j = uind[p];
      while (j != -1 && j < k) {
        const index_t next = ancestor[j];
        ancestor[j] = k;
        if (next == -1) {
          parent[j] = k;
          break;
        }
        j = next;
      }
    }
  }
  return parent;
}

Permutation tree_postorder(const std::vector<index_t>& parent) {
  const index_t n = static_cast<index_t>(parent.size());
  // Child lists built in reverse so traversal visits children ascending.
  std::vector<index_t> head(static_cast<std::size_t>(n), -1);
  std::vector<index_t> next(static_cast<std::size_t>(n), -1);
  for (index_t j = n - 1; j >= 0; --j) {
    const index_t p = parent[j];
    if (p != -1) {
      SPCHOL_CHECK(p >= 0 && p < n, "parent pointer out of range");
      next[j] = head[p];
      head[p] = j;
    }
  }
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<index_t> stack;
  for (index_t r = 0; r < n; ++r) {
    if (parent[r] != -1) continue;  // roots only
    stack.push_back(r);
    while (!stack.empty()) {
      const index_t v = stack.back();
      const index_t c = head[v];
      if (c != -1) {
        head[v] = next[c];  // consume child
        stack.push_back(c);
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  SPCHOL_CHECK(static_cast<index_t>(order.size()) == n,
               "postorder dropped vertices (cycle in parent array?)");
  return Permutation(std::move(order));
}

std::vector<index_t> relabel_tree(const std::vector<index_t>& parent,
                                  const Permutation& perm) {
  const index_t n = static_cast<index_t>(parent.size());
  std::vector<index_t> out(static_cast<std::size_t>(n), -1);
  for (index_t j = 0; j < n; ++j) {
    out[perm.old_to_new(j)] =
        parent[j] == -1 ? -1 : perm.old_to_new(parent[j]);
  }
  return out;
}

bool is_postordered(const std::vector<index_t>& parent) {
  const index_t n = static_cast<index_t>(parent.size());
  // Necessary and sufficient with contiguous subtrees: parent[j] > j and
  // descendants of j form the contiguous range [j - size(j) + 1, j].
  std::vector<index_t> size(static_cast<std::size_t>(n), 1);
  for (index_t j = 0; j < n; ++j) {
    const index_t p = parent[j];
    if (p == -1) continue;
    if (p <= j) return false;
    size[p] += size[j];
  }
  std::vector<index_t> first(static_cast<std::size_t>(n), 0);
  for (index_t j = 0; j < n; ++j) first[j] = j - size[j] + 1;
  for (index_t j = 0; j < n; ++j) {
    const index_t p = parent[j];
    if (p != -1 && first[j] < first[p]) return false;
  }
  return true;
}

std::vector<index_t> column_counts(const CscMatrix& lower,
                                   const std::vector<index_t>& parent) {
  const CscMatrix upper = lower.transpose();  // row i of lower, by column i
  return column_counts_upper(upper.colptr(), upper.rowind(), parent);
}

std::vector<index_t> column_counts_upper(std::span<const offset_t> uptr,
                                         std::span<const index_t> uind,
                                         const std::vector<index_t>& parent) {
  const index_t n = static_cast<index_t>(parent.size());
  std::vector<index_t> cc(static_cast<std::size_t>(n), 1);  // diagonal
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) {
    mark[i] = i;
    for (offset_t p = uptr[i]; p < uptr[i + 1]; ++p) {
      // Row subtree: L(i, j) != 0 for all j on the path j0 → i.
      index_t j = uind[p];
      while (j != -1 && j != i && mark[j] != i) {
        cc[j]++;
        mark[j] = i;
        j = parent[j];
      }
    }
  }
  return cc;
}

std::vector<index_t> child_counts(const std::vector<index_t>& parent) {
  std::vector<index_t> nc(parent.size(), 0);
  for (std::size_t j = 0; j < parent.size(); ++j) {
    if (parent[j] != -1) nc[parent[j]]++;
  }
  return nc;
}

}  // namespace spchol
