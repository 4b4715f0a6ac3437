// RLB: the right-looking blocked method (§II.B) and its two GPU variants
// (§III).
//
// Per supernode J with blocks B_1 < ... < B_m (maximal consecutive row
// runs split at target supernode boundaries): after the panel
// factorization, for every i the diagonal target L(B_i,B_i) receives one
// DSYRK and every pair k > i one DGEMM into L(B_k,B_i) — written DIRECTLY
// into ancestor factor storage on the CPU (no update matrix), one relative
// index per block.
//
// GPU v1 (kBatched): the per-block products accumulate in a device-side
// update matrix and come back in ONE transfer — same memory footprint as
// RL (paper: "of no practical value compared to RL", kept for the §IV.B
// v1-vs-v2 bandwidth/latency experiment).
// GPU v2 (kStreamed): every product is transferred and assembled as soon
// as it completes; device scratch is a single block pair — the low-memory
// variant that survives nlpkkt120.
//
// Parallel path (ctx.scheduled): node kernels for the shared
// PlanExecutor (core/plan_executor.*) over the ExecutionPlan
// (symbolic/exec_plan.*), with fused GPU nodes:
// COMPUTE(s) = panel factorization, SCATTER(s, t) = the direct block
// updates of s into ONE target supernode t — one node per (source,
// target), so the updates of s into different ancestors run concurrently
// (near the etree root this is most of the recoverable parallelism).
// Because RLB writes straight into ancestor storage, the plan's
// per-target contributor chains are what makes the writes safe: a
// target's storage has exactly one writer at a time, in ascending source
// order — the sequential accumulation order, so results stay bitwise
// identical to kCpuSerial. GPU supernodes are fused plan nodes (device
// pipeline + their own assembly, standing in the chains for every one of
// their targets); each draws a buffer slot from a bounded pool so
// independent GPU supernodes overlap on the device. BATCH nodes
// run fused CPU sweeps over small sibling subtrees (compute + all direct
// updates per member, ascending) — never on the device: the device
// variants assemble block products through scratch, a different (though
// combo-invariant) rounding than the CPU's direct in-place updates, and
// batching must not change the bits. The sequential and scheduled
// drivers run the same node kernels; both only record costs for the
// replay (core/replay.hpp).
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "spchol/core/internal.hpp"
#include "spchol/symbolic/exec_plan.hpp"

namespace spchol::detail {

namespace {

/// Resolved addressing for one block: where its rows live inside the
/// target supernode.
struct BlockTarget {
  double* tvals;      // target supernode value base
  index_t ldt;        // target leading dimension
  index_t rpos;       // row position of the block within the target rows
  index_t tcol0;      // first target-local column (diagonal updates)
};

BlockTarget resolve(FactorContext& ctx, const SupernodeBlock& b) {
  const SymbolicFactor& symb = ctx.symb;
  BlockTarget t;
  t.tvals = ctx.sn_values(b.target_sn);
  t.ldt = symb.sn_nrows(b.target_sn);
  t.rpos = symb.row_position(b.target_sn, b.first_row);
  SPCHOL_CHECK(t.rpos >= 0, "block rows missing from target structure");
  t.tcol0 = b.first_row - symb.sn_begin(b.target_sn);
  return t;
}

/// Position of block rows of `b` within the supernode containing block
/// `diag` (the target of a (b, diag) DGEMM).
index_t rows_position_in(FactorContext& ctx, const SupernodeBlock& b,
                         const SupernodeBlock& diag) {
  const index_t pos =
      ctx.symb.row_position(diag.target_sn, b.first_row);
  SPCHOL_CHECK(pos >= 0, "gemm target rows missing from ancestor structure");
  return pos;
}

/// CPU RLB updates of supernode s INTO one target supernode: for every
/// block b_i of s whose rows live in `target`, one DSYRK plus one DGEMM
/// per later block pair (b_k, b_i) — all of which write into `target`'s
/// storage (the target of a (b_k, b_i) product is b_i's supernode). The
/// scheduled driver runs one SCATTER task per (s, target), chained per
/// target in ascending source order, so splitting never reorders any
/// target's accumulation. Blocks are sorted by row, so each target owns a
/// contiguous block range and iterating targets ascending replays the
/// sequential (i, k) product order exactly.
void rlb_cpu_updates_target(FactorContext& ctx, index_t s, index_t target) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t w = symb.sn_width(s);
  const index_t r = symb.sn_nrows(s);
  const double* panel = ctx.sn_values(s);
  const auto blocks = symb.sn_blocks(s);
  const index_t m = static_cast<index_t>(blocks.size());
  for (index_t i = 0; i < m; ++i) {
    const auto& bi = blocks[i];
    if (bi.target_sn != target) continue;
    const BlockTarget t = resolve(ctx, bi);
    ctx.cpu_syrk(bi.nrows, w, panel + bi.src_offset, r,
                 t.tvals + t.rpos +
                     static_cast<offset_t>(t.tcol0) * t.ldt,
                 t.ldt);
    for (index_t k = i + 1; k < m; ++k) {
      const auto& bk = blocks[k];
      const index_t rposk = rows_position_in(ctx, bk, bi);
      ctx.cpu_gemm(bk.nrows, bi.nrows, w, panel + bk.src_offset, r,
                   panel + bi.src_offset, r,
                   t.tvals + rposk +
                       static_cast<offset_t>(t.tcol0) * t.ldt,
                   t.ldt);
    }
  }
}

/// All CPU RLB updates of supernode s (the sequential driver).
void rlb_cpu_updates(FactorContext& ctx, index_t s) {
  for (const index_t target : ctx.symb.sn_update_targets(s)) {
    rlb_cpu_updates_target(ctx, s, target);
  }
}

/// Device update scratch of GPU supernode s, in entries: below² for the
/// batched variant, the largest block pair for the streamed one.
std::size_t rlb_update_entries(const SymbolicFactor& symb, index_t s,
                               bool batched) {
  const std::size_t below = static_cast<std::size_t>(symb.sn_below(s));
  if (batched) return below * below;
  std::size_t max_block = 0;
  for (const auto& b : symb.sn_blocks(s)) {
    max_block = std::max(max_block, static_cast<std::size_t>(b.nrows));
  }
  return max_block * max_block;
}

/// Device-pipeline state of the GPU variants: one slot of the scheduled
/// pool, or the single shared state of the sequential loop. Exclusivity is
/// the caller's job (sequential loop, or one lease per in-flight task).
struct RlbGpuState {
  gpu::DeviceBuffer panel_dev;
  gpu::DeviceBuffer update_dev;
  // The streamed variant double-buffers its host staging area so the
  // assembly of product p-1 can read while product p's copy lands.
  std::vector<double> u_host;
  std::size_t host_update_max = 0;

  RlbGpuState(gpu::Device& dev, std::size_t panel_entries,
              std::size_t update_entries, bool batched)
      : u_host(update_entries * (batched ? 1 : 2)),
        host_update_max(update_entries) {
    if (panel_entries > 0) panel_dev = gpu::DeviceBuffer(dev, panel_entries);
    if (update_entries > 0) {
      update_dev = gpu::DeviceBuffer(dev, update_entries);
    }
  }
  bool fits(std::size_t p, std::size_t u) const {
    return panel_dev.size() >= p && update_dev.size() >= u;
  }
};

void rlb_gpu_supernode(FactorContext& ctx, index_t s, RlbGpuState& st,
                       bool batched) {
  const SymbolicFactor& symb = ctx.symb;
  gpu::Device& dev = ctx.dev;
  const index_t w = symb.sn_width(s);
  const index_t r = symb.sn_nrows(s);
  const index_t below = r - w;
  double* panel = ctx.sn_values(s);
  const auto blocks = symb.sn_blocks(s);
  const index_t m = static_cast<index_t>(blocks.size());
  const auto [compute, copy] = ctx.streams();
  gpu::DeviceBuffer& panel_dev = st.panel_dev;
  gpu::DeviceBuffer& update_dev = st.update_dev;
  std::vector<double>& u_host = st.u_host;

  // --- factor the panel on the device ---
  ctx.count_gpu_supernode();
  const std::size_t entries = static_cast<std::size_t>(r) * w;
  gpu::copy_h2d(dev, compute, panel_dev, 0, panel, entries,
                /*async=*/true);
  try {
    gpu::potrf_lower(dev, compute, w, panel_dev, 0, r);
  } catch (const NotPositiveDefinite& e) {
    throw NotPositiveDefinite(symb.sn_begin(s) + e.column());
  }
  if (below > 0) {
    gpu::trsm_right_lower_trans(dev, compute, below, w, panel_dev, 0,
                                r, w, r);
  }
  gpu::copy_d2h(dev, copy.waiting_for(compute.last()), panel, panel_dev, 0,
                entries, /*async=*/true);
  if (below == 0) return;

  if (batched) {
    // --- v1: all block products into a device update matrix, one D2H.
    // Every product overwrites its own disjoint tile (beta = 0), so no
    // zeroing pass is needed; the assembly reads only the lower
    // block-triangle the products cover.
    const std::size_t ucount =
        static_cast<std::size_t>(below) * static_cast<std::size_t>(below);
    for (index_t i = 0; i < m; ++i) {
      const auto& bi = blocks[i];
      const offset_t bi_off = bi.src_offset - w;  // below-space offset
      gpu::syrk_lower_nt_beta0(dev, compute, bi.nrows, w, panel_dev,
                               bi.src_offset, r, update_dev,
                               static_cast<std::size_t>(bi_off) +
                                   static_cast<std::size_t>(bi_off) *
                                       below,
                               below);
      for (index_t k = i + 1; k < m; ++k) {
        const auto& bk = blocks[k];
        const offset_t bk_off = bk.src_offset - w;
        gpu::gemm_nt_minus_beta0(dev, compute, bk.nrows, bi.nrows, w,
                                 panel_dev, bk.src_offset, r,
                                 bi.src_offset, r, update_dev,
                                 static_cast<std::size_t>(bk_off) +
                                     static_cast<std::size_t>(bi_off) *
                                         below,
                                 below);
      }
    }
    gpu::copy_d2h(dev, compute, u_host.data(), update_dev, 0, ucount,
                  /*async=*/false);
    ctx.account_assembly(rl_assemble(ctx, s, u_host.data()));
    return;
  }

  // --- v2: one product at a time, transferred back as soon as it is
  // computed ("one transfer and assembly operation for each individual
  // DSYRK or DGEMM call"). The device pipeline is kept busy: the next
  // product waits only for the previous copy-out of the scratch (a
  // stream wait, no host block), and the host assembles product p-1
  // while the device computes product p — it blocks only on that
  // product's copy. Device scratch stays a single block pair — the
  // low-memory property that survives nlpkkt120.
  struct Pending {
    bool is_syrk;
    index_t rows, cols;  // product dimensions (rows x cols, ld = rows)
    double* tbase;
    index_t ldt;
    int staging;
    int copy_op;  // the product's D2H, which the host waits for
  };
  Pending pending{};
  bool has_pending = false;
  int staging = 0;
  auto flush_pending = [&]() {
    if (!has_pending) return;
    gpu::host_wait(copy, pending.copy_op);
    const double* u = u_host.data() +
                      static_cast<std::size_t>(pending.staging) *
                          st.host_update_max;
    double entries_assembled = 0.0;
    for (index_t c = 0; c < pending.cols; ++c) {
      const index_t v0 = pending.is_syrk ? c : 0;
      double* tcol = pending.tbase + static_cast<offset_t>(c) * pending.ldt;
      const double* ucol = u + static_cast<std::size_t>(c) * pending.rows;
      for (index_t v = v0; v < pending.rows; ++v) tcol[v] += ucol[v];
      entries_assembled += static_cast<double>(pending.rows - v0);
    }
    ctx.account_assembly(entries_assembled);
    has_pending = false;
  };
  int scratch_free = -1;  // the last copy out of the scratch
  auto stream_product = [&](bool is_syrk, index_t rows, index_t cols,
                            offset_t src_rows_off, offset_t src_cols_off,
                            double* tbase, index_t ldt) {
    const std::size_t cnt =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    // Scratch reuse hazard: the product waits for the previous copy-out.
    const gpu::Stream kernel = compute.waiting_for(scratch_free);
    if (is_syrk) {
      gpu::syrk_lower_nt_beta0(dev, kernel, rows, w, panel_dev, src_rows_off,
                               r, update_dev, 0, rows);
    } else {
      gpu::gemm_nt_minus_beta0(dev, kernel, rows, cols, w, panel_dev,
                               src_rows_off, r, src_cols_off, r, update_dev,
                               0, rows);
    }
    double* stage = u_host.data() +
                    static_cast<std::size_t>(staging) * st.host_update_max;
    scratch_free = gpu::copy_d2h(dev, copy.waiting_for(compute.last()),
                                 stage, update_dev, 0, cnt, /*async=*/true);
    // Assemble the previous product while this one is in flight.
    flush_pending();
    pending = {is_syrk, rows, cols, tbase, ldt, staging, scratch_free};
    has_pending = true;
    staging ^= 1;
  };
  for (index_t i = 0; i < m; ++i) {
    const auto& bi = blocks[i];
    const BlockTarget t = resolve(ctx, bi);
    stream_product(
        /*is_syrk=*/true, bi.nrows, bi.nrows, bi.src_offset, bi.src_offset,
        t.tvals + t.rpos + static_cast<offset_t>(t.tcol0) * t.ldt, t.ldt);
    for (index_t k = i + 1; k < m; ++k) {
      const auto& bk = blocks[k];
      const index_t rposk = rows_position_in(ctx, bk, bi);
      stream_product(
          /*is_syrk=*/false, bk.nrows, bi.nrows, bk.src_offset,
          bi.src_offset,
          t.tvals + rposk + static_cast<offset_t>(t.tcol0) * t.ldt, t.ldt);
    }
  }
  flush_pending();
}

void run_rlb_sequential(FactorContext& ctx) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t ns = symb.num_supernodes();
  const bool batched = ctx.opts.rlb_variant == RlbVariant::kBatched;

  std::size_t panel_max = 0, update_max = 0;
  for (index_t s = 0; s < ns; ++s) {
    if (!ctx.on_gpu(s)) continue;
    panel_max = std::max(panel_max,
                         static_cast<std::size_t>(symb.sn_entries(s)));
    update_max = std::max(update_max, rlb_update_entries(symb, s, batched));
  }
  RlbGpuState st(ctx.dev, panel_max, update_max, batched);
  if (panel_max > 0) ctx.gpu_stream_pairs = 1;
  for (index_t s = 0; s < ns; ++s) {
    const auto step = ctx.step();
    if (!ctx.on_gpu(s)) {
      cpu_factor_panel(ctx, s);
      rlb_cpu_updates(ctx, s);
    } else {
      rlb_gpu_supernode(ctx, s, st, batched);
    }
  }
}

void run_rlb_scheduled(FactorContext& ctx) {
  const SymbolicFactor& symb = ctx.symb;
  const bool batched = ctx.opts.rlb_variant == RlbVariant::kBatched;

  // The shared task-graph shape, with fused GPU nodes; small sibling
  // subtrees coalesce into BATCH nodes.
  PlanExecutor ex(ctx);

  for (const PlanNode& n : ex.plan().nodes()) {
    if (n.kind == PlanNodeKind::kCompute && n.on_gpu) {
      ex.need(static_cast<std::size_t>(symb.sn_entries(n.sn)),
              rlb_update_entries(symb, n.sn, batched));
    }
  }

  // One pipeline state (device buffers + host staging) per
  // in-flight GPU supernode, from a bounded pool.
  const auto pool = ex.pool<RlbGpuState>(
      [batched](gpu::Device& dv, std::size_t p, std::size_t u) {
        return std::make_unique<RlbGpuState>(dv, p, u, batched);
      });
  ctx.gpu_stream_pairs = static_cast<index_t>(pool.slots);

  // --- map plan nodes to scheduler tasks ---------------------------------
  ex.add_nodes([&](std::size_t, const PlanNode& n) -> std::size_t {
    const index_t s = n.sn;
    switch (n.kind) {
      case PlanNodeKind::kCompute: {
        if (!n.on_gpu) {
          return ex.add(n, [&ctx, s] { cpu_factor_panel(ctx, s); });
        }
        // Fused device task (pipeline + its own assembly) on a pooled
        // slot big enough for s. No ascending GPU chain: the plan's
        // per-target contributor chains are the only ordering assembly
        // needs, so GPU supernodes in independent subtrees overlap on the
        // device.
        const std::size_t need_panel =
            static_cast<std::size_t>(symb.sn_entries(s));
        const std::size_t need_update = rlb_update_entries(symb, s, batched);
        return ex.add(
            n,
            [&ctx, &pool, s, batched, need_panel, need_update] {
              auto lease = pool.acquire(need_panel, need_update);
              rlb_gpu_supernode(ctx, s, *lease, batched);
            },
            pool.res);
      }
      case PlanNodeKind::kScatter: {
        const index_t target = n.target;
        return ex.add(n, [&ctx, s, target] {
          rlb_cpu_updates_target(ctx, s, target);
        });
      }
      case PlanNodeKind::kBatch: {
        // Fused CPU sweep: panel factorization + ALL direct updates per
        // member, in ascending order — the sequential driver's exact
        // operation sequence, so the bits match it. BatchScope charges
        // the whole batch as one fused call group.
        const index_t first = n.batch_first;
        const index_t last = n.batch_last;
        return ex.add(n, [&ctx, first, last] {
          FactorContext::BatchScope batch(ctx);
          for (index_t m = first; m <= last; ++m) {
            cpu_factor_panel(ctx, m);
            rlb_cpu_updates(ctx, m);
          }
        });
      }
    }
    return TaskScheduler::kNoResource;  // unreachable: every kind returns
  });
  ex.drain();
}

}  // namespace

void run_rlb(FactorContext& ctx) {
  if (ctx.scheduled) {
    run_rlb_scheduled(ctx);
  } else {
    run_rlb_sequential(ctx);
  }
}

}  // namespace spchol::detail
