// Dense BLAS-style kernels used on supernodes. All matrices are
// column-major with explicit leading dimensions. These are the four
// operations the paper offloads: DPOTRF, DTRSM, DSYRK, DGEMM.
//
// The *_parallel variants fork on a WorkerCrew, at most `threads` wide
// (the calling thread included), and partition the OUTPUT so every
// element is written by exactly one thread with a fixed accumulation
// order — results are bitwise identical to the serial kernels.
#pragma once

#include <cstddef>

#include "spchol/support/common.hpp"
#include "spchol/support/worker_crew.hpp"

namespace spchol::dense {

/// In-place lower Cholesky factorization: A = L·Lᵀ (strictly upper part of
/// A is ignored and left untouched). Throws NotPositiveDefinite with the
/// local column index on a non-positive pivot.
void potrf_lower(index_t n, double* a, index_t lda);

/// B := B · L⁻ᵀ where L (n×n, lower) holds a potrf result; B is m×n.
/// This factorizes the rectangular part of a supernode.
void trsm_right_lower_trans(index_t m, index_t n, const double* l,
                            index_t ldl, double* b, index_t ldb);

/// C := C − A·Aᵀ, lower triangle of C only; A is n×k, C is n×n.
void syrk_lower_nt(index_t n, index_t k, const double* a, index_t lda,
                   double* c, index_t ldc);

/// C := C − A·Bᵀ; A is m×k, B is n×k, C is m×n.
void gemm_nt_minus(index_t m, index_t n, index_t k, const double* a,
                   index_t lda, const double* b, index_t ldb, double* c,
                   index_t ldc);

// ---- supernode solves -------------------------------------------------
//
// L is a supernode's r×w column block (ld ldl ≥ r): L₁₁ its leading w×w
// lower triangle, L₂₁ the r − w rows below. Y is the right-hand-side
// panel gathered to the supernode's rows: r×nrhs at y (ld ldy), Y₁ its
// first w rows, Y₂ the rest. The RHS sits on the micro-kernel's broadcast
// side, so every Y entry's operation sequence depends only on w, r and
// the entry's row: RHS column splits and row-range splits of the forward
// form are bitwise equal to the whole call.

/// Forward form on rows [lo, hi), with lo = 0 or w ≤ lo ≤ hi ≤ r: lo = 0
/// first solves Y₁ := L₁₁⁻¹·Y₁; then Y(t) −= L(t, 0:w)·Y₁ for each row
/// t ≥ w in the range. Only Y₁ and rows [lo, hi) are accessed.
void trsm_left_lower(index_t w, index_t lo, index_t hi, index_t nrhs,
                     const double* l, index_t ldl, double* y, index_t ldy);

/// Transposed form: Y₁ −= L₂₁ᵀ·Y₂, then Y₁ := L₁₁⁻ᵀ·Y₁. Y₂ is only read.
void trsm_left_lower_trans(index_t w, index_t r, index_t nrhs,
                           const double* l, index_t ldl, double* y,
                           index_t ldy);

// ---- parallel variants -------------------------------------------------

void potrf_lower_parallel(WorkerCrew& crew, std::size_t threads, index_t n,
                          double* a, index_t lda);
void trsm_right_lower_trans_parallel(WorkerCrew& crew, std::size_t threads,
                                     index_t m, index_t n, const double* l,
                                     index_t ldl, double* b, index_t ldb);
void syrk_lower_nt_parallel(WorkerCrew& crew, std::size_t threads, index_t n,
                            index_t k, const double* a, index_t lda,
                            double* c, index_t ldc);
void gemm_nt_minus_parallel(WorkerCrew& crew, std::size_t threads, index_t m,
                            index_t n, index_t k, const double* a,
                            index_t lda, const double* b, index_t ldb,
                            double* c, index_t ldc);

// ---- flop counts (used by the performance model) -----------------------

inline double flops_potrf(index_t n) {
  const double d = static_cast<double>(n);
  return d * d * d / 3.0 + d * d / 2.0;
}
inline double flops_trsm(index_t m, index_t n) {
  return static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(n);
}
inline double flops_syrk(index_t n, index_t k) {
  return static_cast<double>(n) * static_cast<double>(n + 1) *
         static_cast<double>(k);
}
inline double flops_gemm(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace spchol::dense
