// Naive reference implementations of the dense kernels, used only by
// tests to validate the blocked/parallel kernels.
#pragma once

#include "spchol/support/common.hpp"

namespace spchol::dense::ref {

void potrf_lower(index_t n, double* a, index_t lda);
void trsm_right_lower_trans(index_t m, index_t n, const double* l,
                            index_t ldl, double* b, index_t ldb);
void syrk_lower_nt(index_t n, index_t k, const double* a, index_t lda,
                   double* c, index_t ldc);
void gemm_nt_minus(index_t m, index_t n, index_t k, const double* a,
                   index_t lda, const double* b, index_t ldb, double* c,
                   index_t ldc);
/// The supernode solves of kernels.hpp on a contiguous r×nrhs panel.
void trsm_left_lower(index_t w, index_t r, index_t nrhs, const double* l,
                     index_t ldl, double* y, index_t ldy);
void trsm_left_lower_trans(index_t w, index_t r, index_t nrhs,
                           const double* l, index_t ldl, double* y,
                           index_t ldy);

}  // namespace spchol::dense::ref
