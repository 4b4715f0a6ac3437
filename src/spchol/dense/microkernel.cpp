#include "spchol/dense/microkernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace spchol::dense::detail {

namespace {

// ---- vector width ---------------------------------------------------------
// dense/ is compiled for the host ISA; the widest available vector sets
// the micro-tile. madd() is the scalar twin of vfma(): both paths of the
// core must apply the identical per-element operation.

#if defined(__AVX512F__)
using vec = __m512d;
constexpr index_t kVec = 8;
constexpr index_t kNR = 8;
inline vec vzero() { return _mm512_setzero_pd(); }
inline vec vload(const double* p) { return _mm512_loadu_pd(p); }
inline void vstore(double* p, vec v) { _mm512_storeu_pd(p, v); }
inline vec vbroadcast(double x) { return _mm512_set1_pd(x); }
inline vec vfma(vec a, vec b, vec acc) { return _mm512_fmadd_pd(a, b, acc); }
inline vec vsub(vec a, vec b) { return _mm512_sub_pd(a, b); }
inline double madd(double a, double b, double acc) {
  return std::fma(a, b, acc);
}
#elif defined(__AVX2__) && defined(__FMA__)
using vec = __m256d;
constexpr index_t kVec = 4;
constexpr index_t kNR = 4;
inline vec vzero() { return _mm256_setzero_pd(); }
inline vec vload(const double* p) { return _mm256_loadu_pd(p); }
inline void vstore(double* p, vec v) { _mm256_storeu_pd(p, v); }
inline vec vbroadcast(double x) { return _mm256_set1_pd(x); }
inline vec vfma(vec a, vec b, vec acc) { return _mm256_fmadd_pd(a, b, acc); }
inline vec vsub(vec a, vec b) { return _mm256_sub_pd(a, b); }
inline double madd(double a, double b, double acc) {
  return std::fma(a, b, acc);
}
#else
// Portable two-lane fallback (no hardware FMA assumed): a multiply and an
// add, two roundings, in both paths. dense/ is built with
// -ffp-contract=off, so the compiler cannot fuse one path and not the other.
typedef double vec __attribute__((vector_size(16)));
constexpr index_t kVec = 2;
constexpr index_t kNR = 4;
inline vec vzero() { return vec{0.0, 0.0}; }
inline vec vload(const double* p) {
  vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void vstore(double* p, vec v) { std::memcpy(p, &v, sizeof v); }
inline vec vbroadcast(double x) { return vec{x, x}; }
inline vec vfma(vec a, vec b, vec acc) { return acc + a * b; }
inline vec vsub(vec a, vec b) { return a - b; }
inline double madd(double a, double b, double acc) { return acc + a * b; }
#endif

// ---- blocking -------------------------------------------------------------

/// Micro-tile rows: two vectors. Columns: kNR broadcast values of B.
constexpr index_t kMR = 2 * kVec;
/// k-block. Part of the accumulation-order invariant: C is updated once per
/// k-block, so this constant fixes every element's rounding sequence.
constexpr index_t kKB = 64;
/// Columns of B packed per chunk; each packed A strip is reused across them.
constexpr index_t kNC = 24;
/// Pack scratch per thread: one packed A strip (kMR × kKB) plus one packed
/// B chunk (kNC × kKB): 20 KiB with AVX-512. A larger chunk measured no faster
/// on the warm_kkt supernode shapes and cost resident memory in every
/// thread that runs a kernel.
constexpr std::size_t kPackCapBytes =
    static_cast<std::size_t>(kMR + kNC) * kKB * sizeof(double);
static_assert(kPackCapBytes <= 64 * 1024, "pack scratch over 64 KiB");
static_assert(kNC % kNR == 0, "B chunk must hold whole strips");

// ---- pack scratch ---------------------------------------------------------

struct FreeDeleter {
  void operator()(double* p) const noexcept { std::free(p); }
};

/// Per-thread pack buffer, sized from the call's shape: it grows to the
/// largest shape this thread has packed and never past kPackCapBytes. Each
/// kernel call finishes with it before the thread can start another.
double* pack_scratch(std::size_t doubles) {
  thread_local std::unique_ptr<double[], FreeDeleter> buf;
  thread_local std::size_t size = 0;
  if (doubles > size) {
    const std::size_t bytes = (doubles * sizeof(double) + 63) / 64 * 64;
    buf.reset(static_cast<double*>(std::aligned_alloc(64, bytes)));
    if (!buf) {
      size = 0;
      throw std::bad_alloc();
    }
    size = bytes / sizeof(double);
  }
  return buf.get();
}

// ---- operands -------------------------------------------------------------

/// Address of operand element (i, p).
inline const double* element(const Operand& o, index_t i, index_t p) {
  const index_t x = o.trans ? p : i;
  const index_t y = o.trans ? i : p;
  return o.data + x + static_cast<std::ptrdiff_t>(y) * o.ld;
}

// ---- packing --------------------------------------------------------------

/// Operand rows [i0, i0+m) over k-block [k0, k0+kb) → dst[p·kW + r], rows
/// m..kW zero-filled. A transposed operand is transposed while copying.
template <index_t kW>
void pack_strip(index_t m, index_t kb, const Operand& o, index_t i0,
                index_t k0, double* dst) {
  for (index_t p = 0; p < kb; ++p, dst += kW) {
    if (o.trans) {
      for (index_t r = 0; r < kW; ++r) {
        dst[r] = r < m ? *element(o, i0 + r, k0 + p) : 0.0;
      }
      continue;
    }
    const double* src = element(o, i0, k0 + p);
    std::copy(src, src + m, dst);
    std::fill(dst + m, dst + kW, 0.0);
  }
}

/// B(j0:j0+nc, k0:k0+kb) → strips of kNR columns, strip s at dst + s·kb·kNR.
void pack_b(index_t nc, index_t kb, const Operand& b, index_t j0,
            index_t k0, double* dst) {
  for (index_t js = 0; js < nc; js += kNR, dst += kb * kNR) {
    pack_strip<kNR>(std::min(kNR, nc - js), kb, b, j0 + js, k0, dst);
  }
}

// ---- micro-tile -----------------------------------------------------------

/// One kMR×kNR tile over a k-block from packed panels: acc = Σ_p a·b in
/// vector registers, then C −= acc on the mr×nr valid part. With `lower`,
/// element (r, jj) is written only when diag + r ≥ jj, where diag is the
/// tile's first row minus its first column.
void micro_tile(index_t kb, const double* ap, const double* bp, double* c,
                index_t ldc, index_t mr, index_t nr, bool lower,
                index_t diag) {
  vec acc0[kNR], acc1[kNR];
#pragma GCC unroll 8
  for (index_t jj = 0; jj < kNR; ++jj) acc0[jj] = acc1[jj] = vzero();
  for (index_t p = 0; p < kb; ++p, ap += kMR, bp += kNR) {
    const vec a0 = vload(ap);
    const vec a1 = vload(ap + kVec);
#pragma GCC unroll 8
    for (index_t jj = 0; jj < kNR; ++jj) {
      const vec bj = vbroadcast(bp[jj]);
      acc0[jj] = vfma(a0, bj, acc0[jj]);
      acc1[jj] = vfma(a1, bj, acc1[jj]);
    }
  }
  if (mr == kMR && nr == kNR && (!lower || diag >= kNR - 1)) {
#pragma GCC unroll 8
    for (index_t jj = 0; jj < kNR; ++jj) {
      double* cj = c + static_cast<std::ptrdiff_t>(jj) * ldc;
      vstore(cj, vsub(vload(cj), acc0[jj]));
      vstore(cj + kVec, vsub(vload(cj + kVec), acc1[jj]));
    }
    return;
  }
  alignas(64) double t[kNR][kMR];
  for (index_t jj = 0; jj < kNR; ++jj) {
    vstore(t[jj], acc0[jj]);
    vstore(t[jj] + kVec, acc1[jj]);
  }
  for (index_t jj = 0; jj < nr; ++jj) {
    double* cj = c + static_cast<std::ptrdiff_t>(jj) * ldc;
    for (index_t r = lower ? std::max<index_t>(0, jj - diag) : 0; r < mr;
         ++r) {
      cj[r] -= t[jj][r];
    }
  }
}

// ---- the two paths --------------------------------------------------------

void packed_update(index_t m, index_t n, index_t k, Operand a, Operand b,
                   double* c, index_t ldc, bool lower) {
  const index_t kb_max = std::min(k, kKB);
  const index_t nc_max = (std::min(n, kNC) + kNR - 1) / kNR * kNR;
  double* apack = pack_scratch(static_cast<std::size_t>(kMR + nc_max) *
                               static_cast<std::size_t>(kb_max));
  double* bpack = apack + static_cast<std::ptrdiff_t>(kMR) * kb_max;
  for (index_t k0 = 0; k0 < k; k0 += kKB) {
    const index_t kb = std::min(kKB, k - k0);
    for (index_t j0 = 0; j0 < n; j0 += kNC) {
      const index_t nc = std::min(kNC, n - j0);
      pack_b(nc, kb, b, j0, k0, bpack);
      // In lower mode rows above j0 have nothing to write in this chunk.
      for (index_t i0 = lower ? j0 : 0; i0 < m; i0 += kMR) {
        const index_t mr = std::min(kMR, m - i0);
        pack_strip<kMR>(mr, kb, a, i0, k0, apack);
        for (index_t jr = 0; jr < nc; jr += kNR) {
          const index_t j = j0 + jr;
          if (lower && i0 + mr <= j) break;  // tile wholly above diagonal
          micro_tile(kb, apack, bpack + static_cast<std::ptrdiff_t>(jr) * kb,
                     c + i0 + static_cast<std::ptrdiff_t>(j) * ldc, ldc, mr,
                     std::min(kNR, nc - jr), lower, i0 - j);
        }
      }
    }
  }
}

/// Unpacked path for small shapes: no padding, the same per-element
/// sequence as micro_tile.
template <bool kTransA>
void small_update(index_t m, index_t n, index_t k, Operand a, Operand b,
                  double* c, index_t ldc, bool lower) {
  // Strides of A between consecutive rows i and consecutive k indices p,
  // and of B between consecutive k indices.
  const std::ptrdiff_t ai = kTransA ? a.ld : 1;
  const std::ptrdiff_t ak = kTransA ? 1 : a.ld;
  const std::ptrdiff_t bs = b.trans ? 1 : b.ld;
  for (index_t k0 = 0; k0 < k; k0 += kKB) {
    const index_t kb = std::min(kKB, k - k0);
    for (index_t j = 0; j < n; ++j) {
      const double* bp = element(b, j, k0);
      double* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
      for (index_t i0 = lower ? j : 0; i0 < m; i0 += kMR) {
        const index_t mr = std::min(kMR, m - i0);
        double acc[kMR] = {};
        for (index_t p = 0; p < kb; ++p) {
          const double* ap = a.data + i0 * ai + (k0 + p) * ak;
          for (index_t r = 0; r < mr; ++r) {
            acc[r] = madd(ap[r * ai], bp[p * bs], acc[r]);
          }
        }
        for (index_t r = 0; r < mr; ++r) cj[i0 + r] -= acc[r];
      }
    }
  }
}

}  // namespace

void update_nt(index_t m, index_t n, index_t k, Operand a, Operand b,
               double* c, index_t ldc, bool lower) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  // Packing pays unless padding to whole tiles would more than double the
  // computed area (shapes just past a tile edge, e.g. 20×10 on 16×8 tiles).
  const std::int64_t padded =
      static_cast<std::int64_t>((m + kMR - 1) / kMR * kMR) *
      ((n + kNR - 1) / kNR * kNR);
  if (m >= kMR && n >= kNR &&
      padded <= 2 * static_cast<std::int64_t>(m) * n) {
    packed_update(m, n, k, a, b, c, ldc, lower);
  } else if (a.trans) {
    small_update<true>(m, n, k, a, b, c, ldc, lower);
  } else {
    small_update<false>(m, n, k, a, b, c, ldc, lower);
  }
}

void parallel_row_bands(WorkerCrew& crew, std::size_t threads, index_t m,
                        const std::function<void(index_t, index_t)>& body) {
  const index_t strips = (m + kMR - 1) / kMR;
  parallel_for(
      crew, 0, strips, threads,
      [&](index_t lo, index_t hi) {
        body(lo * kMR, std::min(hi * kMR, m));
      },
      /*grain=*/std::max<index_t>(1, 32 / kMR));
}

}  // namespace spchol::dense::detail
