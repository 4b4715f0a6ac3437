// The one update core behind every dense kernel: C −= A·Bᵀ computed in
// register-blocked micro-tiles from packed panels. GEMM, SYRK, the
// trailing updates inside TRSM/POTRF and the supernode solves all call it.
// Private to dense/.
//
// Accumulation-order invariant (the bitwise contract rests on it): every
// element C(i,j) gets, for each k-block [k0, k0+kKB) in order starting at
// k = 0, `acc = 0; acc = fma(A(i,p), B(j,p), acc) for p in order; C(i,j) -=
// acc`. The sequence depends only on k, never on m, n, the element's tile,
// its row band, which path (packed or small-shape) computed it, or whether
// an operand is stored transposed: packing only copies. So any
// row or column split of a call is bitwise equal to the whole call.
#pragma once

#include <cstddef>
#include <functional>

#include "spchol/support/common.hpp"
#include "spchol/support/worker_crew.hpp"

namespace spchol::dense::detail {

/// One operand of update_nt, a column-major matrix in memory: its element
/// (i, p) is data[i + p·ld], or data[p + i·ld] when `trans`.
struct Operand {
  const double* data;
  index_t ld;
  bool trans = false;
};

/// C := C − A·Bᵀ with A m×k, B n×k, C m×n (column-major). With `lower`,
/// only elements with i ≥ j are written (the SYRK lower triangle when B is
/// A); the rest of C is never touched.
void update_nt(index_t m, index_t n, index_t k, Operand a, Operand b,
               double* c, index_t ldc, bool lower);

/// Runs body(lo, hi) over row bands of [0, m) on up to `threads` crew
/// threads, with band edges on micro-tile boundaries so no band pads a
/// partial tile except the last.
void parallel_row_bands(WorkerCrew& crew, std::size_t threads, index_t m,
                        const std::function<void(index_t, index_t)>& body);

}  // namespace spchol::dense::detail
