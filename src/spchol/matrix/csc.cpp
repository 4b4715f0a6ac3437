#include "spchol/matrix/csc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "spchol/matrix/coo.hpp"

namespace spchol {

CscMatrix::CscMatrix(index_t rows, index_t cols, std::vector<offset_t> colptr,
                     std::vector<index_t> rowind, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      colptr_(std::move(colptr)),
      rowind_(std::move(rowind)),
      values_(std::move(values)) {
  SPCHOL_CHECK(rows_ >= 0 && cols_ >= 0, "negative dimension");
  SPCHOL_CHECK(colptr_.size() == static_cast<std::size_t>(cols_) + 1,
               "colptr size mismatch");
  SPCHOL_CHECK(colptr_.front() == 0, "colptr[0] must be 0");
  SPCHOL_CHECK(colptr_.back() == static_cast<offset_t>(rowind_.size()),
               "colptr[cols] must equal nnz");
  SPCHOL_CHECK(rowind_.size() == values_.size(), "rowind/values size mismatch");
  // Every column range must lie inside [0, nnz] before any row index is
  // read through it.
  for (index_t j = 0; j < cols_; ++j) {
    SPCHOL_CHECK(colptr_[j] <= colptr_[j + 1], "colptr not monotone");
  }
  for (index_t j = 0; j < cols_; ++j) {
    for (offset_t p = colptr_[j]; p < colptr_[j + 1]; ++p) {
      SPCHOL_CHECK(rowind_[p] >= 0 && rowind_[p] < rows_,
                   "row index out of range");
      if (p > colptr_[j]) {
        SPCHOL_CHECK(rowind_[p - 1] < rowind_[p],
                     "row indices not strictly increasing within column");
      }
    }
  }
}

CscMatrix CscMatrix::identity(index_t n) {
  std::vector<offset_t> cp(static_cast<std::size_t>(n) + 1);
  std::vector<index_t> ri(static_cast<std::size_t>(n));
  std::vector<double> vals(static_cast<std::size_t>(n), 1.0);
  for (index_t j = 0; j <= n; ++j) cp[j] = j;
  for (index_t j = 0; j < n; ++j) ri[j] = j;
  return CscMatrix(n, n, std::move(cp), std::move(ri), std::move(vals));
}

CscMatrix CooMatrix::to_csc() const {
  // Counting sort by column, then per-column sort by row, then merge dups.
  std::vector<offset_t> count(static_cast<std::size_t>(cols_) + 1, 0);
  for (const auto& t : entries_) count[t.col + 1]++;
  for (index_t j = 0; j < cols_; ++j) count[j + 1] += count[j];
  std::vector<offset_t> pos(count.begin(), count.end() - 1);
  std::vector<index_t> ri(entries_.size());
  std::vector<double> vals(entries_.size());
  for (const auto& t : entries_) {
    const offset_t p = pos[t.col]++;
    ri[p] = t.row;
    vals[p] = t.value;
  }
  std::vector<offset_t> cp(static_cast<std::size_t>(cols_) + 1, 0);
  std::vector<index_t> ri_out;
  std::vector<double> vals_out;
  ri_out.reserve(entries_.size());
  vals_out.reserve(entries_.size());
  std::vector<std::pair<index_t, double>> column;
  for (index_t j = 0; j < cols_; ++j) {
    const offset_t lo = count[j], hi = count[j + 1];
    column.clear();
    column.reserve(static_cast<std::size_t>(hi - lo));
    for (offset_t p = lo; p < hi; ++p) column.emplace_back(ri[p], vals[p]);
    std::sort(column.begin(), column.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    index_t prev_row = -1;
    for (const auto& [row, v] : column) {
      if (row == prev_row) {
        vals_out.back() += v;
      } else {
        ri_out.push_back(row);
        vals_out.push_back(v);
        prev_row = row;
      }
    }
    cp[j + 1] = static_cast<offset_t>(ri_out.size());
  }
  return CscMatrix(rows_, cols_, std::move(cp), std::move(ri_out),
                   std::move(vals_out));
}

CscMatrix CscMatrix::transpose() const {
  std::vector<offset_t> cp(static_cast<std::size_t>(rows_) + 1, 0);
  for (const index_t i : rowind_) cp[i + 1]++;
  for (index_t i = 0; i < rows_; ++i) cp[i + 1] += cp[i];
  std::vector<offset_t> pos(cp.begin(), cp.end() - 1);
  std::vector<index_t> ri(rowind_.size());
  std::vector<double> vals(values_.size());
  for (index_t j = 0; j < cols_; ++j) {
    for (offset_t p = colptr_[j]; p < colptr_[j + 1]; ++p) {
      const offset_t q = pos[rowind_[p]]++;
      ri[q] = j;
      vals[q] = values_[p];
    }
  }
  return CscMatrix(cols_, rows_, std::move(cp), std::move(ri),
                   std::move(vals));
}

CscMatrix CscMatrix::lower() const {
  std::vector<offset_t> cp(static_cast<std::size_t>(cols_) + 1, 0);
  std::vector<index_t> ri;
  std::vector<double> vals;
  ri.reserve(rowind_.size());
  vals.reserve(values_.size());
  for (index_t j = 0; j < cols_; ++j) {
    for (offset_t p = colptr_[j]; p < colptr_[j + 1]; ++p) {
      if (rowind_[p] >= j) {
        ri.push_back(rowind_[p]);
        vals.push_back(values_[p]);
      }
    }
    cp[j + 1] = static_cast<offset_t>(ri.size());
  }
  return CscMatrix(rows_, cols_, std::move(cp), std::move(ri),
                   std::move(vals));
}

CscMatrix CscMatrix::full_from_lower() const {
  SPCHOL_CHECK(square(), "full_from_lower requires a square matrix");
  CooMatrix coo(rows_, cols_);
  coo.reserve(2 * rowind_.size());
  for (index_t j = 0; j < cols_; ++j) {
    for (offset_t p = colptr_[j]; p < colptr_[j + 1]; ++p) {
      const index_t i = rowind_[p];
      SPCHOL_CHECK(i >= j, "matrix is not lower triangular");
      coo.add(i, j, values_[p]);
      if (i != j) coo.add(j, i, values_[p]);
    }
  }
  return coo.to_csc();
}

bool CscMatrix::structurally_symmetric() const {
  if (!square()) return false;
  const CscMatrix t = transpose();
  return t.colptr_ == colptr_ && t.rowind_ == rowind_;
}

void CscMatrix::sym_lower_matvec(std::span<const double> x,
                                 std::span<double> y) const {
  SPCHOL_CHECK(square(), "sym_lower_matvec requires a square matrix");
  SPCHOL_CHECK(x.size() == static_cast<std::size_t>(cols_) &&
                   y.size() == static_cast<std::size_t>(rows_),
               "vector size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (index_t j = 0; j < cols_; ++j) {
    const double xj = x[j];
    for (offset_t p = colptr_[j]; p < colptr_[j + 1]; ++p) {
      const index_t i = rowind_[p];
      const double v = values_[p];
      y[i] += v * xj;
      if (i != j) y[j] += v * x[i];
    }
  }
}

CscMatrix CscMatrix::permuted_sym_lower(const Permutation& perm) const {
  SPCHOL_CHECK(square(), "permuted_sym_lower requires a square matrix");
  SPCHOL_CHECK(perm.size() == cols_, "permutation size mismatch");
  CooMatrix coo(rows_, cols_);
  coo.reserve(rowind_.size());
  for (index_t j = 0; j < cols_; ++j) {
    const index_t nj = perm.old_to_new(j);
    for (offset_t p = colptr_[j]; p < colptr_[j + 1]; ++p) {
      const index_t ni = perm.old_to_new(rowind_[p]);
      coo.add(std::max(ni, nj), std::min(ni, nj), values_[p]);
    }
  }
  return coo.to_csc();
}

double CscMatrix::max_abs_diff(const CscMatrix& a, const CscMatrix& b) {
  SPCHOL_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_,
               "dimension mismatch in max_abs_diff");
  double m = 0.0;
  for (index_t j = 0; j < a.cols_; ++j) {
    offset_t pa = a.colptr_[j], pb = b.colptr_[j];
    const offset_t ea = a.colptr_[j + 1], eb = b.colptr_[j + 1];
    while (pa < ea || pb < eb) {
      const index_t ia = pa < ea ? a.rowind_[pa] : a.rows_;
      const index_t ib = pb < eb ? b.rowind_[pb] : b.rows_;
      if (ia == ib) {
        m = std::max(m, std::abs(a.values_[pa] - b.values_[pb]));
        ++pa;
        ++pb;
      } else if (ia < ib) {
        m = std::max(m, std::abs(a.values_[pa]));
        ++pa;
      } else {
        m = std::max(m, std::abs(b.values_[pb]));
        ++pb;
      }
    }
  }
  return m;
}

}  // namespace spchol
