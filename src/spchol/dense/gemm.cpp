#include <vector>

#include "spchol/dense/kernels.hpp"
#include "spchol/dense/microkernel.hpp"

namespace spchol::dense {

void gemm_nt_minus(index_t m, index_t n, index_t k, const double* a,
                   index_t lda, const double* b, index_t ldb, double* c,
                   index_t ldc) {
  detail::update_nt(m, n, k, {a, lda}, {b, ldb}, c, ldc, /*lower=*/false);
}

void gemm_nt_minus_parallel(WorkerCrew& crew, std::size_t threads, index_t m,
                            index_t n, index_t k, const double* a,
                            index_t lda, const double* b, index_t ldb,
                            double* c, index_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (threads <= 1) {
    gemm_nt_minus(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  // Each thread owns a row band of C, so every output element has one
  // writer; the core's per-element order makes the split invisible.
  detail::parallel_row_bands(crew, threads, m, [&](index_t lo, index_t hi) {
    gemm_nt_minus(hi - lo, n, k, a + lo, lda, b, ldb, c + lo, ldc);
  });
}

void syrk_lower_nt(index_t n, index_t k, const double* a, index_t lda,
                   double* c, index_t ldc) {
  detail::update_nt(n, n, k, {a, lda}, {a, lda}, c, ldc, /*lower=*/true);
}

void syrk_lower_nt_parallel(WorkerCrew& crew, std::size_t threads, index_t n,
                            index_t k, const double* a, index_t lda,
                            double* c, index_t ldc) {
  if (n <= 0 || k <= 0) return;
  if (threads <= 1 || n < 64) {
    syrk_lower_nt(n, k, a, lda, c, ldc);
    return;
  }
  // Partition columns with balanced trapezoid areas: column j costs
  // (n - j)·k, so chunk boundaries equalize sum(n - j).
  const double total = 0.5 * static_cast<double>(n) *
                       static_cast<double>(n + 1);
  const std::size_t nchunks = threads;
  std::vector<index_t> bounds(nchunks + 1, n);
  bounds[0] = 0;
  index_t j = 0;
  double acc = 0.0;
  for (std::size_t cidx = 1; cidx < nchunks; ++cidx) {
    const double target =
        total * static_cast<double>(cidx) / static_cast<double>(nchunks);
    while (j < n && acc < target) {
      acc += static_cast<double>(n - j);
      ++j;
    }
    bounds[cidx] = j;
  }
  crew.run(nchunks, [&](std::size_t cidx) {
    const index_t lo = bounds[cidx], hi = bounds[cidx + 1];
    // This chunk owns the trapezoid C(lo:n, lo:hi), lower part only.
    detail::update_nt(n - lo, hi - lo, k, {a + lo, lda}, {a + lo, lda},
                      c + lo + static_cast<std::ptrdiff_t>(lo) * ldc, ldc,
                      /*lower=*/true);
  });
}

}  // namespace spchol::dense
