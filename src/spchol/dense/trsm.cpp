#include <algorithm>

#include "spchol/dense/kernels.hpp"
#include "spchol/dense/microkernel.hpp"

namespace spchol::dense {

namespace {

/// Column block of the blocked solves. It equals the micro-kernel's
/// k-block, so a block's update over all earlier columns runs k-blocks
/// that line up with the column blocks.
constexpr index_t kNB = 64;

/// Supernodes narrower than this solve with level-2 loops: for them the
/// micro-kernel's calls cost more than its arithmetic saves. On the
/// PFlow_742_small analog (2,363 supernodes of width 12) the serial 1-RHS
/// solve takes 1.0 ms with them and 1.7 ms without; other cutoffs were not
/// compared. The choice depends on w alone, so every path picks the same
/// loops for a supernode and a scheduled solve stays bitwise equal to the
/// serial one.
constexpr index_t kLevel2Width = 16;

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

/// Forward substitution inside the diagonal block [j0, e) of L₁₁ for kCols
/// RHS columns at y, all earlier blocks' contributions applied: each
/// solved entry is pushed down the block, then on into rows [e, hi). The
/// columns' dependency chains overlap. With the block all of L₁₁ this is
/// the level-2 form.
template <index_t kCols>
void lower_cols(index_t j0, index_t e, index_t hi, const double* l,
                index_t ldl, double* y, index_t ldy) {
  for (index_t j = j0; j < e; ++j) {
    const double* col = l + static_cast<std::ptrdiff_t>(j) * ldl;
    const double inv = 1.0 / col[j];
    for (index_t c = 0; c < kCols; ++c) {
      double* yc = y + static_cast<std::ptrdiff_t>(c) * ldy;
      const double v = yc[j] * inv;
      yc[j] = v;
      for (index_t t = j + 1; t < hi; ++t) yc[t] -= col[t] * v;
    }
  }
}

/// Back substitution with L₁₁ᵀ inside the diagonal block [j0, e) for kCols
/// RHS columns, all later blocks' contributions applied: j descending,
/// each entry reduced over its L column's rows (j, hi), t ascending.
/// hi = e solves the block alone; a block of all of L₁₁ with hi = r is the
/// level-2 form.
template <index_t kCols>
void lower_trans_cols(index_t j0, index_t e, index_t hi, const double* l,
                      index_t ldl, double* y, index_t ldy) {
  for (index_t j = e - 1; j >= j0; --j) {
    const double* col = l + static_cast<std::ptrdiff_t>(j) * ldl;
    double v[kCols];
    for (index_t c = 0; c < kCols; ++c) v[c] = y[j + c * ldy];
    for (index_t t = j + 1; t < hi; ++t) {
      for (index_t c = 0; c < kCols; ++c) v[c] -= col[t] * y[t + c * ldy];
    }
    const double inv = 1.0 / col[j];
    for (index_t c = 0; c < kCols; ++c) y[j + c * ldy] = v[c] * inv;
  }
}

using ColumnsKernel = void (*)(index_t, index_t, index_t, const double*,
                               index_t, double*, index_t);

/// Runs a kernel over the nrhs columns of y: kGroup on groups of four,
/// then kSingle one column at a time.
template <ColumnsKernel kGroup, ColumnsKernel kSingle>
void by_columns(index_t j0, index_t e, index_t hi, index_t nrhs,
                const double* l, index_t ldl, double* y, index_t ldy) {
  index_t q = 0;
  for (; q + 4 <= nrhs; q += 4) {
    kGroup(j0, e, hi, l, ldl, y + static_cast<std::ptrdiff_t>(q) * ldy, ldy);
  }
  for (; q < nrhs; ++q) {
    kSingle(j0, e, hi, l, ldl, y + static_cast<std::ptrdiff_t>(q) * ldy, ldy);
  }
}

constexpr auto lower_block = by_columns<lower_cols<4>, lower_cols<1>>;
constexpr auto lower_trans_block =
    by_columns<lower_trans_cols<4>, lower_trans_cols<1>>;

}  // namespace

void trsm_left_lower(index_t w, index_t lo, index_t hi, index_t nrhs,
                     const double* l, index_t ldl, double* y, index_t ldy) {
  if (w <= 0 || nrhs <= 0) return;
  if (lo == 0 && w < kLevel2Width) {
    lower_block(0, w, hi, nrhs, l, ldl, y, ldy);
    return;
  }
  if (lo == 0) {
    for (index_t j0 = 0; j0 < w; j0 += kNB) {
      const index_t e = std::min(w, j0 + kNB);
      // Y(j0:e) −= L(j0:e, 0:j0) · Y(0:j0).
      detail::update_nt(e - j0, nrhs, j0, {l + j0, ldl}, {y, ldy, true},
                        y + j0, ldy, /*lower=*/false);
      lower_block(j0, e, e, nrhs, l, ldl, y, ldy);
    }
    lo = w;
  }
  if (lo >= hi) return;
  if (w >= kLevel2Width) {
    detail::update_nt(hi - lo, nrhs, w, {l + lo, ldl}, {y, ldy, true},
                      y + lo, ldy, /*lower=*/false);
    return;
  }
  // Level 2 (a SCATTER's rows): per entry the pushes of lower_block.
  for (index_t q = 0; q < nrhs; ++q) {
    double* yq = y + static_cast<std::ptrdiff_t>(q) * ldy;
    for (index_t t = lo; t < hi; ++t) {
      double v = yq[t];
      for (index_t j = 0; j < w; ++j) {
        v -= l[t + static_cast<std::ptrdiff_t>(j) * ldl] * yq[j];
      }
      yq[t] = v;
    }
  }
}

void trsm_left_lower_trans(index_t w, index_t r, index_t nrhs,
                           const double* l, index_t ldl, double* y,
                           index_t ldy) {
  if (w <= 0 || nrhs <= 0) return;
  if (w < kLevel2Width) {
    lower_trans_block(0, w, r, nrhs, l, ldl, y, ldy);
    return;
  }
  // Y₁ −= L₂₁ᵀ · Y₂: A is read through a transposed pack.
  detail::update_nt(w, nrhs, r - w, {l + w, ldl, true}, {y + w, ldy, true},
                    y, ldy, /*lower=*/false);
  for (index_t j0 = (w - 1) / kNB * kNB; j0 >= 0; j0 -= kNB) {
    const index_t e = std::min(w, j0 + kNB);
    // Y(j0:e) −= L(e:w, j0:e)ᵀ · Y(e:w).
    detail::update_nt(e - j0, nrhs, w - e,
                      {l + e + static_cast<std::ptrdiff_t>(j0) * ldl, ldl,
                       true},
                      {y + e, ldy, true}, y + j0, ldy, /*lower=*/false);
    lower_trans_block(j0, e, e, nrhs, l, ldl, y, ldy);
  }
}

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

void trsm_right_lower_trans_parallel(WorkerCrew& crew, std::size_t threads,
                                     index_t m, index_t n, const double* l,
                                     index_t ldl, double* b, index_t ldb) {
  if (m <= 0 || n <= 0) return;
  if (threads <= 1 || m < 64) {
    trsm_right_lower_trans(m, n, l, ldl, b, ldb);
    return;
  }
  // Rows of B are independent in a right-side solve.
  detail::parallel_row_bands(crew, threads, m, [&](index_t lo, index_t hi) {
    trsm_right_lower_trans(hi - lo, n, l, ldl, b + lo, ldb);
  });
}

}  // namespace spchol::dense
