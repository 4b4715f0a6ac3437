#include <algorithm>

#include "spchol/dense/kernels.hpp"
#include "spchol/dense/microkernel.hpp"

namespace spchol::dense {

namespace {

constexpr index_t kNB = 64;

constexpr index_t kStrip = 32;

/// In-block solve of one strip of rows (kRows of them, or `rows` when
/// kRows is 0): columns [j0, j0+jw) given that all contributions from
/// columns < j0 are already applied. X(:,j) =
/// (B(:,j) − Σ_{t=j0..j-1} X(:,t)·L(j,t)) / L(j,j). The strip's running
/// column stays in registers across the t sweep.
template <index_t kRows>
void solve_strip(index_t rows, index_t j0, index_t jw, const double* l,
                 index_t ldl, double* b, index_t ldb) {
  const index_t mr = kRows > 0 ? kRows : rows;
  for (index_t j = j0; j < j0 + jw; ++j) {
    double* bj = b + static_cast<std::ptrdiff_t>(j) * ldb;
    double x[kStrip];
    for (index_t r = 0; r < mr; ++r) x[r] = bj[r];
    for (index_t t = j0; t < j; ++t) {
      const double ljt = l[j + static_cast<std::ptrdiff_t>(t) * ldl];
      if (ljt == 0.0) continue;
      const double* bt = b + static_cast<std::ptrdiff_t>(t) * ldb;
      for (index_t r = 0; r < mr; ++r) x[r] -= bt[r] * ljt;
    }
    const double inv = 1.0 / l[j + static_cast<std::ptrdiff_t>(j) * ldl];
    for (index_t r = 0; r < mr; ++r) bj[r] = x[r] * inv;
  }
}

/// In-block solve over all m rows, strip by strip. Rows are independent, so
/// each element's operation sequence does not depend on the strip split.
void trsm_inblock(index_t m, index_t j0, index_t jw, const double* l,
                  index_t ldl, double* b, index_t ldb) {
  index_t i0 = 0;
  for (; i0 + kStrip <= m; i0 += kStrip) {
    solve_strip<kStrip>(kStrip, j0, jw, l, ldl, b + i0, ldb);
  }
  if (i0 < m) solve_strip<0>(m - i0, j0, jw, l, ldl, b + i0, ldb);
}

}  // namespace

void trsm_right_lower_trans(index_t m, index_t n, const double* l,
                            index_t ldl, double* b, index_t ldb) {
  if (m <= 0 || n <= 0) return;
  for (index_t j0 = 0; j0 < n; j0 += kNB) {
    const index_t jw = std::min(kNB, n - j0);
    // Contributions from already-solved column blocks:
    // B(:, j0:j0+jw) -= X(:, 0:j0) · L(j0:j0+jw, 0:j0)ᵀ.
    if (j0 > 0) {
      gemm_nt_minus(m, jw, j0, b, ldb, l + j0, ldl, b + j0 * ldb, ldb);
    }
    trsm_inblock(m, j0, jw, l, ldl, b, ldb);
  }
}

void trsm_right_lower_trans_parallel(ThreadPool& pool, std::size_t threads,
                                     index_t m, index_t n, const double* l,
                                     index_t ldl, double* b, index_t ldb) {
  if (m <= 0 || n <= 0) return;
  if (threads <= 1 || m < 64) {
    trsm_right_lower_trans(m, n, l, ldl, b, ldb);
    return;
  }
  // Rows of B are independent in a right-side solve.
  detail::parallel_row_bands(pool, threads, m, [&](index_t lo, index_t hi) {
    trsm_right_lower_trans(hi - lo, n, l, ldl, b + lo, ldb);
  });
}

}  // namespace spchol::dense
