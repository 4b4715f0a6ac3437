// Device BLAS: the MAGMA-equivalent calls the paper offloads. Each call
// executes the numerics for real (on host threads, operating on device
// buffers) and records its modeled duration on a Stream handle.
#pragma once

#include <span>

#include "spchol/gpu/device.hpp"

namespace spchol::gpu {

/// Device DPOTRF on an n×n lower block at `off` within `buf` (ld = lda).
void potrf_lower(Device& dev, Stream s, index_t n, DeviceBuffer& buf,
                 std::size_t off, index_t lda);

/// Device DTRSM: B := B·L⁻ᵀ; L at l_off in `buf` (n×n), B at b_off (m×n).
void trsm_right_lower_trans(Device& dev, Stream s, index_t m, index_t n,
                            DeviceBuffer& buf, std::size_t l_off, index_t ldl,
                            std::size_t b_off, index_t ldb);

/// Device DSYRK: C := C − A·Aᵀ (lower); A at a_off in `abuf` (n×k), C at
/// c_off in `cbuf` (n×n).
void syrk_lower_nt(Device& dev, Stream s, index_t n, index_t k,
                   const DeviceBuffer& abuf, std::size_t a_off, index_t lda,
                   DeviceBuffer& cbuf, std::size_t c_off, index_t ldc);

/// Device DGEMM: C := C − A·Bᵀ; A (m×k) at a_off, B (n×k) at b_off — both
/// in `abuf` — and C (m×n) at c_off in `cbuf`.
void gemm_nt_minus(Device& dev, Stream s, index_t m, index_t n, index_t k,
                   const DeviceBuffer& abuf, std::size_t a_off, index_t lda,
                   std::size_t b_off, index_t ldb, DeviceBuffer& cbuf,
                   std::size_t c_off, index_t ldc);

/// Device DSYRK with beta = 0: C := −A·Aᵀ (lower), overwriting C — one
/// kernel, no separate zeroing pass (MAGMA semantics). The strict upper
/// triangle of the C region is zeroed as a side effect.
void syrk_lower_nt_beta0(Device& dev, Stream s, index_t n, index_t k,
                         const DeviceBuffer& abuf, std::size_t a_off,
                         index_t lda, DeviceBuffer& cbuf, std::size_t c_off,
                         index_t ldc);

/// Device DGEMM with beta = 0: C := −A·Bᵀ, overwriting C.
void gemm_nt_minus_beta0(Device& dev, Stream s, index_t m, index_t n,
                         index_t k, const DeviceBuffer& abuf,
                         std::size_t a_off, index_t lda, std::size_t b_off,
                         index_t ldb, DeviceBuffer& cbuf, std::size_t c_off,
                         index_t ldc);

/// Device memset-to-zero (cudaMemsetAsync equivalent), modeled as a
/// bandwidth-bound kernel.
void zero_fill(Device& dev, Stream s, DeviceBuffer& buf, std::size_t off,
               std::size_t count);

// --- fused batched launches (small-supernode batching) --------------------

/// One member panel of a fused batched launch, packed column-major at
/// `panel_off` in the panel buffer (r × w, ld = r); its update matrix
/// ((r-w)² lower, ld = r-w) lands at `update_off` in the update buffer.
struct BatchedPanel {
  index_t w = 0;               ///< supernode width
  index_t r = 0;               ///< supernode rows (>= w)
  std::size_t panel_off = 0;   ///< member offset in the packed panel buffer
  std::size_t update_off = 0;  ///< member offset in the packed update buffer
  index_t first_col = 0;       ///< global first column (pivot reporting)
};

/// ONE fused batched panel-factorization launch: DPOTRF + DTRSM of every
/// member panel, modeled as a single launch whose per-kernel latency is
/// amortized over the batch (PerfModel::gpu_batched_kernel_seconds) —
/// the cuBLAS/MAGMA batched-API shape for swarms of small dense blocks.
/// Throws NotPositiveDefinite with first_col + local column.
void batched_panel_factor(Device& dev, Stream s,
                          std::span<const BatchedPanel> panels,
                          DeviceBuffer& buf);

/// ONE fused batched update launch: the beta = 0 DSYRK of every member
/// with r > w, each overwriting its own tile of the packed update buffer.
/// One modeled launch for the whole batch.
void batched_syrk_update(Device& dev, Stream s,
                         std::span<const BatchedPanel> panels,
                         const DeviceBuffer& pbuf, DeviceBuffer& ubuf);

}  // namespace spchol::gpu
