#include <algorithm>
#include <cmath>

#include "spchol/dense/kernels.hpp"

namespace spchol::dense {

namespace {

constexpr index_t kNB = 64;

/// Right-looking unblocked Cholesky on an nb×nb diagonal block.
/// `col_offset` shifts the column reported by NotPositiveDefinite.
void potrf_unblocked(index_t nb, double* a, index_t lda, index_t col_offset) {
  for (index_t j = 0; j < nb; ++j) {
    const double d = a[j + j * lda];
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw NotPositiveDefinite(col_offset + j);
    }
    const double root = std::sqrt(d);
    a[j + j * lda] = root;
    const double inv = 1.0 / root;
    for (index_t i = j + 1; i < nb; ++i) a[i + j * lda] *= inv;
    for (index_t t = j + 1; t < nb; ++t) {
      const double v = a[t + j * lda];
      if (v == 0.0) continue;
      const double* col_j = a + j * lda;
      double* col_t = a + t * lda;
      for (index_t i = t; i < nb; ++i) col_t[i] -= col_j[i] * v;
    }
  }
}

/// Right-looking blocked Cholesky: factor each kNB diagonal block, solve
/// the panel below it, update the trailing matrix. With a crew the panel
/// solve and update run in parallel; they are bitwise equal to the serial
/// kernels, so both variants produce identical factors.
void potrf_blocked(WorkerCrew* crew, std::size_t threads, index_t n,
                   double* a, index_t lda) {
  for (index_t k0 = 0; k0 < n; k0 += kNB) {
    const index_t kw = std::min(kNB, n - k0);
    const index_t k1 = k0 + kw;
    double* akk = a + k0 + static_cast<std::ptrdiff_t>(k0) * lda;
    potrf_unblocked(kw, akk, lda, k0);
    if (k1 == n) break;
    double* panel = a + k1 + static_cast<std::ptrdiff_t>(k0) * lda;
    double* trail = a + k1 + static_cast<std::ptrdiff_t>(k1) * lda;
    if (crew == nullptr) {
      trsm_right_lower_trans(n - k1, kw, akk, lda, panel, lda);
      syrk_lower_nt(n - k1, kw, panel, lda, trail, lda);
    } else {
      trsm_right_lower_trans_parallel(*crew, threads, n - k1, kw, akk, lda,
                                      panel, lda);
      syrk_lower_nt_parallel(*crew, threads, n - k1, kw, panel, lda, trail,
                             lda);
    }
  }
}

}  // namespace

void potrf_lower(index_t n, double* a, index_t lda) {
  potrf_blocked(nullptr, 1, n, a, lda);
}

void potrf_lower_parallel(WorkerCrew& crew, std::size_t threads, index_t n,
                          double* a, index_t lda) {
  potrf_blocked(threads <= 1 || n < 2 * kNB ? nullptr : &crew, threads, n, a,
                lda);
}

}  // namespace spchol::dense
