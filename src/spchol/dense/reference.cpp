#include "spchol/dense/reference.hpp"

#include <cmath>

namespace spchol::dense::ref {

void potrf_lower(index_t n, double* a, index_t lda) {
  for (index_t j = 0; j < n; ++j) {
    double d = a[j + j * lda];
    for (index_t k = 0; k < j; ++k) d -= a[j + k * lda] * a[j + k * lda];
    if (!(d > 0.0)) throw NotPositiveDefinite(j);
    const double root = std::sqrt(d);
    a[j + j * lda] = root;
    for (index_t i = j + 1; i < n; ++i) {
      double s = a[i + j * lda];
      for (index_t k = 0; k < j; ++k) s -= a[i + k * lda] * a[j + k * lda];
      a[i + j * lda] = s / root;
    }
  }
}

void trsm_right_lower_trans(index_t m, index_t n, const double* l,
                            index_t ldl, double* b, index_t ldb) {
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double s = b[i + j * ldb];
      for (index_t t = 0; t < j; ++t) s -= b[i + t * ldb] * l[j + t * ldl];
      b[i + j * ldb] = s / l[j + j * ldl];
    }
  }
}

void syrk_lower_nt(index_t n, index_t k, const double* a, index_t lda,
                   double* c, index_t ldc) {
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      double s = 0.0;
      for (index_t t = 0; t < k; ++t) s += a[i + t * lda] * a[j + t * lda];
      c[i + j * ldc] -= s;
    }
  }
}

void gemm_nt_minus(index_t m, index_t n, index_t k, const double* a,
                   index_t lda, const double* b, index_t ldb, double* c,
                   index_t ldc) {
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (index_t t = 0; t < k; ++t) s += a[i + t * lda] * b[j + t * ldb];
      c[i + j * ldc] -= s;
    }
  }
}

void trsm_left_lower(index_t w, index_t r, index_t nrhs, const double* l,
                     index_t ldl, double* y, index_t ldy) {
  for (index_t q = 0; q < nrhs; ++q) {
    double* yq = y + q * ldy;
    for (index_t j = 0; j < w; ++j) {
      double s = yq[j];
      for (index_t t = 0; t < j; ++t) s -= l[j + t * ldl] * yq[t];
      yq[j] = s / l[j + j * ldl];
    }
    for (index_t i = w; i < r; ++i) {
      double s = 0.0;
      for (index_t t = 0; t < w; ++t) s += l[i + t * ldl] * yq[t];
      yq[i] -= s;
    }
  }
}

void trsm_left_lower_trans(index_t w, index_t r, index_t nrhs,
                           const double* l, index_t ldl, double* y,
                           index_t ldy) {
  for (index_t q = 0; q < nrhs; ++q) {
    double* yq = y + q * ldy;
    for (index_t j = w - 1; j >= 0; --j) {
      double s = yq[j];
      for (index_t t = j + 1; t < r; ++t) s -= l[t + j * ldl] * yq[t];
      yq[j] = s / l[j + j * ldl];
    }
  }
}

}  // namespace spchol::dense::ref
