// The one update core behind every dense kernel: C −= A·Bᵀ computed in
// register-blocked micro-tiles from packed panels. GEMM, SYRK and the
// trailing updates inside TRSM/POTRF all call it. Private to dense/.
//
// Accumulation-order invariant (the bitwise contract rests on it): every
// element C(i,j) gets, for each k-block [k0, k0+kKB) in order starting at
// k = 0, `acc = 0; acc = fma(A(i,p), B(j,p), acc) for p in order; C(i,j) -=
// acc`. The sequence depends only on k, never on m, n, the element's tile,
// its row band or which path (packed or small-shape) computed it, so any
// row or column split of a call is bitwise equal to the whole call.
#pragma once

#include <cstddef>
#include <functional>

#include "spchol/support/common.hpp"
#include "spchol/support/thread_pool.hpp"

namespace spchol::dense::detail {

/// C := C − A·Bᵀ with A m×k, B n×k, C m×n (column-major). With `lower`,
/// only elements with i ≥ j are written (the SYRK lower triangle when B is
/// A); the rest of C is never touched.
void update_nt(index_t m, index_t n, index_t k, const double* a, index_t lda,
               const double* b, index_t ldb, double* c, index_t ldc,
               bool lower);

/// Runs body(lo, hi) over row bands of [0, m) on up to `threads` pool
/// threads, with band edges on micro-tile boundaries so no band pads a
/// partial tile except the last.
void parallel_row_bands(ThreadPool& pool, std::size_t threads, index_t m,
                        const std::function<void(index_t, index_t)>& body);

}  // namespace spchol::dense::detail
