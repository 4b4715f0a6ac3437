// RL: the right-looking method (§II.A) and its GPU acceleration (§III).
//
// Per supernode J: DPOTRF on the diagonal block, DTRSM on the rectangular
// part, one DSYRK producing the whole update matrix in scratch, then
// scatter-assembly into the ancestors via generalized relative indices.
//
// GPU path (paper §III): H2D(J) → device POTRF → device TRSM → async
// D2H(factored J) on the copy stream, overlapped with the device SYRK on
// the compute stream → synchronous D2H(update matrix) → parallel CPU
// assembly. Small supernodes (entries < threshold) stay on the CPU.
//
// Parallel path (ctx.scheduled): the driver supplies node kernels to the
// shared PlanExecutor (core/plan_executor.*), which runs the
// ExecutionPlan (symbolic/exec_plan.*) and owns the scheduler, device
// pools, hop pricing and drain. The plan's COMPUTE nodes
// map to panel factorization + SYRK into a per-supernode update buffer,
// SCATTER nodes to the ancestor assembly, and BATCH nodes to fused
// compute+scatter sweeps over a run of small sibling subtrees (one fused
// batched device launch pair when the members are independent leaves
// whose combined entries cross the GPU threshold). The plan's edges are
// the supernodal-etree readiness edges plus the per-target ascending
// scatter chains, which simultaneously (a) make every target's storage
// single-writer without locks and (b) reproduce the sequential
// accumulation order, so results are bitwise identical to kCpuSerial for
// every worker/stream/batch setting.
//
// Fan-both (FactorOptions::fan_both, PlanShape::kFanBoth): heavily
// shared targets trade their scatter chain for per-group AGGREGATE
// gathers into private (offset, value) slabs — executed concurrently —
// plus a short chain of sequential APPLY replays whose concatenation IS
// the serial accumulation order (bitwise identity preserved). BATCH
// nodes decouple into compute + in-batch assembly here and separate
// BATCHSCATTER nodes per out-of-batch target. Update buffers become
// multi-consumer and are freed by reference count instead of the single
// scatter's eager swap.
//
// In kGpuHybrid the above-threshold COMPUTE tasks run the §III device
// pipeline on a slot drawn from a bounded pool: each in-flight GPU
// supernode gets its OWN compute/copy stream pair and device panel+update
// buffers, so independent subtree supernodes overlap on the device (not
// just against the CPU workers). A scheduler resource token caps in-flight
// GPU tasks at the pool size, and slot-reuse hazards are resolved with
// device-side stream waits — scheduled tasks never advance the shared
// modeled host clock to a stream tail, so the post-drain fold of deferred
// CPU-task time keeps makespan = max(host, stream tails), not their sum.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "spchol/core/internal.hpp"
#include "spchol/symbolic/exec_plan.hpp"

namespace spchol::detail {

namespace {

/// One in-flight GPU supernode's device resources: a compute/copy stream
/// pair plus panel and update buffers sized for the largest GPU supernode.
struct RlGpuSlot {
  gpu::Stream compute;
  gpu::Stream copy;
  gpu::DeviceBuffer panel;
  gpu::DeviceBuffer update;

  RlGpuSlot(gpu::Device& dev, std::size_t panel_entries,
            std::size_t update_entries)
      : compute(dev), copy(dev) {
    if (panel_entries > 0) panel = gpu::DeviceBuffer(dev, panel_entries);
    if (update_entries > 0) update = gpu::DeviceBuffer(dev, update_entries);
  }
  bool fits(std::size_t p, std::size_t u) const {
    return panel.size() >= p && update.size() >= u;
  }
};

/// CPU panel factorization of s plus the SYRK of its update matrix into
/// `u` (resized to below × below and zeroed first — the update holds
/// MINUS the outer product).
void rl_cpu_compute(FactorContext& ctx, index_t s, std::vector<double>& u) {
  const index_t w = ctx.symb.sn_width(s);
  const index_t r = ctx.symb.sn_nrows(s);
  const index_t below = r - w;
  cpu_factor_panel(ctx, s);
  if (below == 0) return;
  u.assign(static_cast<std::size_t>(below) * below, 0.0);
  ctx.cpu_syrk(below, w, ctx.sn_values(s) + w, r, u.data(), below);
}

/// The paper-§III device pipeline for one supernode, on `slot` of `dev`
/// (the device the planner assigned s to; `dev_ord` its effective ordinal
/// for the stats breakdown): H2D(panel) → POTRF → TRSM → async D2H of the
/// factored panel overlapped with the SYRK → D2H of the update matrix
/// into `u` (the caller assembles it). `deferred` selects the scheduled
/// semantics: every synchronization is DEVICE-side (stream waits on
/// events) — a scheduled task must never advance the shared modeled host
/// clock to a stream tail, or the post-drain fold of deferred CPU-task
/// time would count the overlapped transfer wait twice. The sequential
/// loop's host genuinely waits instead.
void rl_gpu_compute(FactorContext& ctx, gpu::Device& dev, index_t dev_ord,
                    index_t s, RlGpuSlot& slot, std::vector<double>& u,
                    bool deferred) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t w = symb.sn_width(s);
  const index_t r = symb.sn_nrows(s);
  const index_t below = r - w;
  double* panel = ctx.sn_values(s);

  ctx.count_gpu_supernode(dev_ord);
  // Slot-reuse hazard: the previous occupant's async panel D2H is still
  // draining the copy stream.
  if (deferred) {
    slot.compute.wait(slot.copy.record());
  } else {
    slot.copy.synchronize();
  }
  const std::size_t entries = static_cast<std::size_t>(r) * w;
  gpu::copy_h2d(dev, slot.compute, slot.panel, 0, panel, entries,
                /*async=*/true);
  try {
    gpu::potrf_lower(dev, slot.compute, w, slot.panel, 0, r);
  } catch (const NotPositiveDefinite& e) {
    throw NotPositiveDefinite(symb.sn_begin(s) + e.column());
  }
  if (below > 0) {
    gpu::trsm_right_lower_trans(dev, slot.compute, below, w, slot.panel,
                                0, r, w, r);
  }
  // Asynchronous D2H of the factored supernode: the CPU does not need it
  // yet, so it overlaps the update SYRK (paper §III).
  slot.copy.wait(slot.compute.record());
  gpu::copy_d2h(dev, slot.copy, panel, slot.panel, 0, entries,
                /*async=*/true);
  if (below > 0) {
    gpu::syrk_lower_nt_beta0(dev, slot.compute, below, w, slot.panel, w,
                             r, slot.update, 0, below);
    // The update-buffer reuse hazard is covered by FIFO order on the
    // compute stream (the next occupant's SYRK queues behind this copy).
    u.resize(static_cast<std::size_t>(below) * below);
    gpu::copy_d2h(dev, slot.compute, u.data(), slot.update, 0, u.size(),
                  /*async=*/deferred);
  }
}

/// Cooperative device pipeline for one SPINE supernode (plan device
/// ordinal -1): the wide separator panels near the root that no single
/// device shard can absorb without serializing the critical path. The
/// numerics run once, on device 0 (the owner) — the identical §III call
/// sequence, so factors stay bitwise independent of the device count —
/// while the modeled timeline block-distributes the POTRF trailing
/// updates, the TRSM, and the SYRK across ALL devices of the registry
/// via gpu::coop_panel_factor / coop_syrk_update_d2h (p2p panel
/// broadcast, phase barriers, per-device D2H update slices).
void rl_gpu_compute_coop(FactorContext& ctx, gpu::Device& dev,
                         gpu::Stream& coop_s, index_t s, RlGpuSlot& slot,
                         std::vector<double>& u,
                         std::span<const gpu::CoopPeer> peers) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t w = symb.sn_width(s);
  const index_t r = symb.sn_nrows(s);
  const index_t below = r - w;
  double* panel = ctx.sn_values(s);
  const std::size_t ucount =
      static_cast<std::size_t>(below) * static_cast<std::size_t>(below);

  ctx.count_gpu_supernode(0);
  ctx.count_coop_supernode();
  // The owner's share of the cooperative timeline rides `coop_s`, a
  // dedicated device-0 stream — NOT the slot's compute stream — so the
  // all-to-all phase fences never capture an unrelated supernode that
  // later reuses a pool slot. Only the slot's copy stream touches the
  // mesh: the buffer-reuse hazard against the previous coop occupant's
  // panel download, and this occupant's own async panel download.
  coop_s.wait(slot.copy.record());
  const std::size_t entries = static_cast<std::size_t>(r) * w;
  gpu::coop_copy_h2d(dev, coop_s, peers, slot.panel, 0, panel, entries);
  try {
    gpu::coop_panel_factor(dev, coop_s, peers, w, slot.panel, 0, r);
  } catch (const NotPositiveDefinite& e) {
    throw NotPositiveDefinite(symb.sn_begin(s) + e.column());
  }
  slot.copy.wait(coop_s.record());
  gpu::coop_copy_d2h(dev, slot.copy, peers, panel, slot.panel, 0, entries);
  if (below > 0) {
    u.resize(ucount);
    gpu::coop_syrk_update_d2h(dev, coop_s, peers, below, w, slot.panel, w,
                              r, slot.update, u.data());
  }
}

/// Fused batched device pipeline for a BATCH of small, mutually
/// independent leaf supernodes [first, last]: ONE packed H2D of every
/// member panel, one fused batched POTRF+TRSM launch, one packed D2H of
/// the factored panels, one fused batched SYRK launch into a packed
/// update buffer, one packed D2H, then CPU assembly in ascending member
/// order — the sequential per-target accumulation order, so results stay
/// bitwise identical to the unbatched path. The launch latency and
/// transfer latency are paid once per batch instead of once per
/// supernode (gpu::perf_model batched-kernel cost). Synchronization is
/// device-side only, like rl_gpu_compute.
///
/// Fan-both (`ubuf_out` != nullptr): the batch is DECOUPLED — each
/// member's update matrix is kept in (*ubuf_out)[member] for the separate
/// BATCHSCATTER/AGGREGATE consumers, and only in-batch targets are
/// assembled here (device-eligible batches are independent leaves, so
/// that range is empty). Same kernels in the same order either way.
void rl_gpu_batch(FactorContext& ctx, gpu::Device& dev, index_t dev_ord,
                  index_t first, index_t last, RlGpuSlot& slot,
                  std::vector<std::vector<double>>* ubuf_out = nullptr) {
  const SymbolicFactor& symb = ctx.symb;
  std::vector<gpu::BatchedPanel> panels;
  panels.reserve(static_cast<std::size_t>(last - first + 1));
  std::size_t panel_total = 0, update_total = 0;
  for (index_t s = first; s <= last; ++s) {
    const index_t w = symb.sn_width(s);
    const index_t r = symb.sn_nrows(s);
    const std::size_t below = static_cast<std::size_t>(r - w);
    panels.push_back({w, r, panel_total, update_total, symb.sn_begin(s)});
    panel_total += static_cast<std::size_t>(r) * w;
    update_total += below * below;
    ctx.count_gpu_supernode(dev_ord);
  }

  // Pack the member panels into one staging area: one transfer for the
  // whole batch (the staging memcpy is a simulation detail, like the
  // eager data movement of the async copies).
  std::vector<double> stage(panel_total);
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const gpu::BatchedPanel& p = panels[i];
    std::memcpy(stage.data() + p.panel_off,
                ctx.sn_values(first + static_cast<index_t>(i)),
                static_cast<std::size_t>(p.r) * p.w * sizeof(double));
  }
  // Slot-reuse hazard: chain behind the previous occupant's async D2H.
  slot.compute.wait(slot.copy.record());
  gpu::copy_h2d(dev, slot.compute, slot.panel, 0, stage.data(),
                panel_total, /*async=*/true);
  gpu::batched_panel_factor(dev, slot.compute, panels, slot.panel);
  ctx.count_fused_launch();
  slot.copy.wait(slot.compute.record());
  gpu::copy_d2h(dev, slot.copy, stage.data(), slot.panel, 0,
                panel_total, /*async=*/true);
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const gpu::BatchedPanel& p = panels[i];
    std::memcpy(ctx.sn_values(first + static_cast<index_t>(i)),
                stage.data() + p.panel_off,
                static_cast<std::size_t>(p.r) * p.w * sizeof(double));
  }
  if (update_total == 0) return;

  gpu::batched_syrk_update(dev, slot.compute, panels, slot.panel,
                           slot.update);
  ctx.count_fused_launch();
  std::vector<double> ustage(update_total);
  gpu::copy_d2h(dev, slot.compute, ustage.data(), slot.update, 0,
                update_total, /*async=*/true);
  double entries = 0.0;
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const gpu::BatchedPanel& p = panels[i];
    if (p.r == p.w) continue;
    const index_t m = first + static_cast<index_t>(i);
    const double* u = ustage.data() + p.update_off;
    if (ubuf_out != nullptr) {
      const std::size_t below = static_cast<std::size_t>(p.r - p.w);
      (*ubuf_out)[m].assign(u, u + below * below);
      entries += rl_assemble_range(ctx, m, u, first, last);
    } else {
      entries += rl_assemble(ctx, m, u);
    }
  }
  ctx.account_assembly(entries);  // one fused assembly region per batch
}

void run_rl_sequential(FactorContext& ctx) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t ns = symb.num_supernodes();

  // Host scratch for the update matrix, preallocated at the largest size
  // (the paper preallocates "so that it can store the largest update
  // matrix during the factorization"), and one device slot sized for the
  // largest GPU supernode — this is where RL fails on the nlpkkt120 class
  // (update matrix larger than device memory). Sizes are std::size_t so a
  // wide supernode's below² can never wrap a narrower type.
  std::size_t host_max = 0, panel_max = 0, update_max = 0;
  for (index_t s = 0; s < ns; ++s) {
    const std::size_t below = static_cast<std::size_t>(symb.sn_below(s));
    host_max = std::max(host_max, below * below);
    if (!ctx.on_gpu(s)) continue;
    panel_max = std::max(panel_max,
                         static_cast<std::size_t>(symb.sn_entries(s)));
    update_max = std::max(update_max, below * below);
  }
  std::vector<double> u;
  u.reserve(host_max);
  RlGpuSlot slot(ctx.dev, panel_max, update_max);
  if (panel_max > 0) ctx.gpu_stream_pairs = 1;

  for (index_t s = 0; s < ns; ++s) {
    if (ctx.on_gpu(s)) {
      rl_gpu_compute(ctx, ctx.dev, 0, s, slot, u, /*deferred=*/false);
    } else {
      rl_cpu_compute(ctx, s, u);
    }
    if (symb.sn_below(s) > 0) {
      ctx.account_assembly(rl_assemble(ctx, s, u.data()));
    }
  }
}

void run_rl_scheduled(FactorContext& ctx) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t ns = symb.num_supernodes();
  const bool hybrid = ctx.opts.exec == Execution::kGpuHybrid;

  // The shared task-graph shape: COMPUTE/SCATTER/BATCH nodes + readiness
  // and per-target chain edges, with small sibling subtrees coalesced
  // into BATCH nodes (see symbolic/exec_plan.*).
  PlanExecutor ex(ctx);
  const ExecutionPlan& plan = ex.graph().plan;
  const auto nodes = plan.nodes();
  const std::size_t ndev = ex.ndev();

  // Packed buffer needs of one batch (panel entries, update entries).
  auto batch_needs = [&](const PlanNode& n) {
    std::size_t p = 0, u = 0;
    for (index_t s = n.batch_first; s <= n.batch_last; ++s) {
      const std::size_t below = static_cast<std::size_t>(symb.sn_below(s));
      p += static_cast<std::size_t>(symb.sn_entries(s));
      u += below * below;
    }
    return std::pair<std::size_t, std::size_t>{p, u};
  };
  // Device-batch decision, deterministic from the plan and options alone:
  // a batch of independent leaves goes to the device when its COMBINED
  // entries cross the hybrid threshold — individually its members were
  // GPU-hostile, but one fused launch pair amortizes the latency the
  // threshold exists to avoid. (Bitwise identity is unaffected: the
  // device runs the same deterministic kernels in the same order.)
  std::vector<char> batch_on_dev(nodes.size(), 0);

  // Per-device buffer needs of every GPU task (supernodes AND device
  // batches). Cooperative spine supernodes (plan ordinal -1, with more
  // than one device engaged) bypass the pools: they get ONE dedicated
  // slot sized for the largest coop panel/update, so the all-to-all
  // fences of the cooperative mesh never couple into pool-slot reuse by
  // unrelated supernodes. With one device the -1 folds to ordinal 0 and
  // they run the plain pipeline from the ordinary pool.
  const bool coop_run = ndev > 1;
  std::size_t coop_panel_max = 0, coop_update_max = 0;
  for (std::size_t i = 0; hybrid && i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    if (n.kind == PlanNodeKind::kCompute && n.on_gpu) {
      const std::size_t below = static_cast<std::size_t>(symb.sn_below(n.sn));
      const auto entries = static_cast<std::size_t>(symb.sn_entries(n.sn));
      if (coop_run && n.device < 0) {
        coop_panel_max = std::max(coop_panel_max, entries);
        coop_update_max = std::max(coop_update_max, below * below);
      } else {
        ex.need(n.device, entries, below * below);
      }
    } else if (n.kind == PlanNodeKind::kBatch && n.device_eligible) {
      const auto [p, u] = batch_needs(n);
      if (static_cast<offset_t>(p) < ctx.opts.gpu_threshold_rl) continue;
      batch_on_dev[i] = 1;
      ex.need(n.device, p, u);
    }
  }

  // Cooperative spine support: the spine supernodes' kernels are
  // block-distributed across the whole registry. Device 0 (the owner,
  // where the numerics run) gets one dedicated stream for its share of
  // the cooperative timeline, every peer device one more; the coop
  // chain's buffers live in a dedicated single-slot pool with its own
  // scheduler resource — the spine is a chain, so one in-flight coop task
  // is the natural cap. Allocated BEFORE the per-device pools: the coop
  // slot is mandatory (no smaller fallback exists for the spine), so the
  // shrinkable pools must size themselves around it — otherwise a run
  // that fits on one device could OOM on four.
  constexpr std::uint64_t kRlPoolTag = 0x524c2d504f4f4cull;  // "RL-POOL"
  const bool has_coop = coop_run && coop_panel_max > 0;
  std::vector<std::unique_ptr<gpu::Stream>> coop_streams;
  std::vector<gpu::CoopPeer> coop_peers;
  PlanExecutor::PoolPtr<RlGpuSlot> coop_pool;
  std::size_t coop_res = TaskScheduler::kNoResource;
  const auto make_slot = [](gpu::Device& dv, std::size_t p, std::size_t u) {
    return std::make_unique<RlGpuSlot>(dv, p, u);
  };
  if (has_coop) {
    for (std::size_t d = 0; d < ndev; ++d) {
      gpu::Device& dv = ex.device(d);
      coop_streams.push_back(std::make_unique<gpu::Stream>(dv));
      if (d > 0) {
        gpu::Stream* mesh = coop_streams.back().get();
        coop_streams.push_back(std::make_unique<gpu::Stream>(dv));
        coop_peers.push_back(
            {&dv, mesh, coop_streams.back().get(), static_cast<int>(d)});
      }
    }
    constexpr std::uint64_t kCoopPoolTag = 0x434f4f502d534c54ull;  // "COOP"
    coop_pool = ex.pool<RlGpuSlot>(0, kCoopPoolTag, 1, [&](std::size_t) {
      return make_slot(ex.device(0), coop_panel_max, coop_update_max);
    });
    coop_res = ex.tokens(coop_pool);
  }

  // Bounded per-device slot pools. Device 0 under extreme pressure: when
  // the mandatory coop slot left no room for even one regular slot but
  // covers device 0's largest regular need, regular tasks share it — they
  // and the spine serialize on the one slot, degrading throughput
  // instead of failing a run that fits on fewer devices.
  const auto pools = ex.pools<RlGpuSlot>(
      kRlPoolTag, make_slot,
      [&](std::size_t d, std::size_t panel0, std::size_t update0) {
        return d == 0 && has_coop && coop_panel_max >= panel0 &&
                       coop_update_max >= update0
                   ? coop_pool
                   : nullptr;
      });
  ctx.gpu_stream_pairs =
      static_cast<index_t>(pools.slots) + (has_coop ? 1 : 0);

  // Per-supernode update buffers: allocated by COMPUTE (the device path
  // fills them through its final D2H), consumed and released by SCATTER.
  // Batches carry their own transient scratch instead.
  std::vector<std::vector<double>> ubuf(static_cast<std::size_t>(ns));

  // --- fan-both support --------------------------------------------------
  const bool fan_both = plan.fan_both();
  const std::span<const index_t> devof = ex.graph().device_of;

  // Fan-both splits one supernode's assembly across several consumer
  // tasks (per-target scatters, batch-scatters, aggregation groups), so
  // ubuf release moves from the single scatter's eager swap to a
  // reference count: one reference per consumer task per member, plus
  // one held by a batch task itself for each of its members (covering
  // members whose every target is in-batch). The last consumer frees.
  std::vector<std::atomic<index_t>> uref(
      fan_both ? static_cast<std::size_t>(ns) : 0);
  if (fan_both) {
    for (const PlanNode& n : nodes) {
      if (n.kind == PlanNodeKind::kScatter && n.target >= 0) {
        uref[n.sn].fetch_add(1, std::memory_order_relaxed);
      } else if (n.kind == PlanNodeKind::kBatchScatter ||
                 n.kind == PlanNodeKind::kBatch) {
        for (index_t m = n.batch_first; m <= n.batch_last; ++m) {
          uref[m].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    for (index_t g = 0; g < plan.num_aggs(); ++g) {
      for (const index_t m : plan.agg_members(g)) {
        uref[m].fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  auto unref = [&uref, &ubuf](index_t s) {
    if (uref[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::vector<double>().swap(ubuf[s]);
    }
  };

  // Aggregation slabs: (offset, value) pair storage per group, allocated
  // by AGGREGATE, replayed and freed by APPLY.
  std::vector<std::vector<offset_t>> slab_offs(
      fan_both ? static_cast<std::size_t>(plan.num_aggs()) : 0);
  std::vector<std::vector<double>> slab_vals(
      fan_both ? static_cast<std::size_t>(plan.num_aggs()) : 0);

  // Device-fused aggregation: when EVERY member of a group runs on the
  // same device, the gather is one fused batched device kernel over the
  // members' update buffers (already resident there) followed by one
  // D2H of the slab — modeled on a dedicated per-device aggregation
  // stream so gathers overlap the compute pipeline. The numerics still
  // run host-side (the device executes eagerly on host memory anyway),
  // so the bits never depend on where the gather was priced.
  std::vector<std::unique_ptr<gpu::Stream>> agg_streams(
      fan_both && hybrid ? ndev : 0);
  auto agg_fused_device = [&](index_t g) -> index_t {
    if (!fan_both || !hybrid) return -1;
    index_t d = -1;
    for (const index_t m : plan.agg_members(g)) {
      if (!ctx.on_gpu(m)) return -1;
      index_t md = 0;
      if (!devof.empty()) {
        if (devof[m] < 0) return -1;
        md = static_cast<index_t>(ex.ord(devof[m]));
      }
      if (d < 0) {
        d = md;
      } else if (d != md) {
        return -1;
      }
    }
    return d;
  };

  // --- map plan nodes to scheduler tasks ---------------------------------
  ex.add_nodes([&](std::size_t i, const PlanNode& n) -> std::size_t {
    switch (n.kind) {
      case PlanNodeKind::kCompute: {
        const index_t s = n.sn;
        if (!n.on_gpu) {
          return ex.add(n, [&ctx, &ubuf, s] {
            rl_cpu_compute(ctx, s, ubuf[s]);
          });
        }
        if (has_coop && n.device < 0) {
          return ex.add(
              n,
              [&ctx, &coop_pool, &coop_streams, &coop_peers, &ubuf, s] {
                auto lease = coop_pool->acquire();
                rl_gpu_compute_coop(ctx, ctx.device(0), *coop_streams[0], s,
                                    *lease, ubuf[s], coop_peers);
              },
              coop_res);
        }
        // Device COMPUTE: a slot big enough for s from ITS OWN device's
        // pool runs the §III pipeline there; the update matrix lands in
        // ubuf[s] for the SCATTER.
        const std::size_t below = static_cast<std::size_t>(symb.sn_below(s));
        const std::size_t need_panel =
            static_cast<std::size_t>(symb.sn_entries(s));
        const std::size_t dord = ex.ord(n.device);
        return ex.add(
            n,
            [&ctx, &ex, &pools, &ubuf, s, need_panel, below, dord] {
              auto lease = pools.acquire(dord, need_panel, below * below);
              rl_gpu_compute(ctx, ex.device(dord),
                             static_cast<index_t>(dord), s, *lease, ubuf[s],
                             /*deferred=*/true);
            },
            pools.res[dord]);
      }
      case PlanNodeKind::kScatter: {
        // Cross-device separator assembly: the slice of s's update
        // matrix aimed at GPU targets on OTHER devices pays an explicit
        // modeled hop (priced here at build time). The assembly itself
        // still runs on the host in the plan's fixed per-target ascending
        // order — the hop changes the modeled timeline, never the bits.
        // A fan-both per-target split assembles ONLY its target's segment
        // and drops one ubuf reference; the plain scatter frees eagerly.
        const index_t s = n.sn;
        const index_t t = fan_both ? n.target : -1;
        return ex.add(n, [&ctx, &ex, &ubuf, unref, s, t,
                          xhops = ex.cross_hops(s, s, t)] {
          ex.charge(xhops);
          if (t >= 0) {
            ctx.account_assembly(
                rl_assemble_range(ctx, s, ubuf[s].data(), t, t));
            unref(s);
          } else {
            ctx.account_assembly(rl_assemble(ctx, s, ubuf[s].data()));
            std::vector<double>().swap(ubuf[s]);
          }
        });
      }
      case PlanNodeKind::kBatch: {
        const index_t first = n.batch_first;
        const index_t last = n.batch_last;
        if (batch_on_dev[i]) {
          const auto [need_panel, need_update] = batch_needs(n);
          const std::size_t dord = ex.ord(n.device);
          return ex.add(
              n,
              [&ctx, &ex, &pools, &ubuf, unref, first, last, need_panel,
               need_update, dord, fan_both] {
                auto lease = pools.acquire(dord, need_panel, need_update);
                rl_gpu_batch(ctx, ex.device(dord),
                             static_cast<index_t>(dord), first, last,
                             *lease, fan_both ? &ubuf : nullptr);
                if (fan_both) {
                  for (index_t m = first; m <= last; ++m) unref(m);
                }
              },
              pools.res[dord]);
        }
        // Fused CPU sweep: compute then assemble each member in
        // ascending order — exactly the sequential driver's pattern
        // (shared scratch, zeroed per member), so the bits match it.
        // BatchScope gathers the members' modeled costs and charges the
        // batch as one fused call group + one fused assembly region.
        // Fan-both decouples the batch: each member's update matrix goes
        // to ubuf[member] (kept for the out-of-batch BATCHSCATTER and
        // AGGREGATE consumers) and only in-batch targets are assembled
        // here — the same entries in the same order the plain sweep
        // would have applied them.
        return ex.add(n, [&ctx, &ubuf, unref, first, last, fan_both] {
          FactorContext::BatchScope batch(ctx);
          std::vector<double> scratch;
          for (index_t s = first; s <= last; ++s) {
            std::vector<double>& u = fan_both ? ubuf[s] : scratch;
            rl_cpu_compute(ctx, s, u);
            if (ctx.symb.sn_below(s) == 0) continue;
            ctx.account_assembly(
                fan_both ? rl_assemble_range(ctx, s, u.data(), first, last)
                         : rl_assemble(ctx, s, u.data()));
          }
          if (fan_both) {
            for (index_t s = first; s <= last; ++s) unref(s);
          }
        });
      }
      case PlanNodeKind::kBatchScatter: {
        // Fan-both decoupled batch assembly: every batch member's slice
        // into ONE out-of-batch target, in ascending member order — the
        // contiguous run of the target's contributor chain the batch
        // replaced. Each member drops one ubuf reference. Members may
        // live on different devices; their hops merge per (src,dst).
        const index_t first = n.batch_first;
        const index_t last = n.batch_last;
        const index_t t = n.target;
        return ex.add(n, [&ctx, &ex, &ubuf, unref, first, last, t,
                          xhops = ex.cross_hops(first, last, t)] {
          ex.charge(xhops);
          double entries = 0.0;
          for (index_t m = first; m <= last; ++m) {
            if (!ubuf[m].empty()) {
              entries += rl_assemble_range(ctx, m, ubuf[m].data(), t, t);
            }
            unref(m);
          }
          ctx.account_assembly(entries);
        });
      }
      case PlanNodeKind::kAggregate: {
        // Fan-both gather: every group member's update slice for the
        // target streams into a private (offset, value) slab in the
        // exact serial per-entry order. Groups of one target run
        // CONCURRENTLY — this is the parallelizable half of the
        // assembly the per-target chain used to serialize.
        const index_t g = n.agg;
        const index_t t = n.target;
        const offset_t total = plan.agg_entries(g);
        const index_t fd = agg_fused_device(g);
        if (fd >= 0 && !agg_streams[static_cast<std::size_t>(fd)]) {
          agg_streams[static_cast<std::size_t>(fd)] =
              std::make_unique<gpu::Stream>(ctx.device(fd));
        }
        gpu::Stream* astream =
            fd >= 0 ? agg_streams[static_cast<std::size_t>(fd)].get()
                    : nullptr;
        return ex.add(n, [&ctx, &plan, &ubuf, &slab_offs, &slab_vals, unref,
                          g, t, total, fd, astream] {
          const std::size_t bytes = static_cast<std::size_t>(total) *
                                    (sizeof(offset_t) + sizeof(double));
          slab_offs[g].resize(static_cast<std::size_t>(total));
          slab_vals[g].resize(static_cast<std::size_t>(total));
          ctx.note_agg_alloc(bytes);
          offset_t k = 0;
          for (const index_t m : plan.agg_members(g)) {
            if (!ubuf[m].empty()) {
              k += rl_gather_target(ctx, m, ubuf[m].data(), t,
                                    slab_offs[g].data() + k,
                                    slab_vals[g].data() + k);
            }
            unref(m);
          }
          SPCHOL_CHECK(k == total, "aggregation slab entry count mismatch");
          if (astream == nullptr) {
            ctx.account_aggregation(static_cast<double>(total));
            return;
          }
          // Every member's update buffer already lives on device fd:
          // model the gather as one fused batched kernel plus one slab
          // D2H on the device's aggregation stream. The host-side gather
          // above IS the numerics (the simulated device computes on host
          // memory), so only the price moves to the device timeline.
          gpu::Device& dv = ctx.device(fd);
          const auto& pm = dv.model();
          const double kt = pm.gpu_batched_kernel_seconds(
              static_cast<double>(total), plan.agg_members(g).size());
          dv.enqueue(*astream, kt);
          dv.note_kernel(kt);
          const double dt = pm.d2h_seconds(static_cast<double>(bytes));
          dv.enqueue(*astream, dt);
          dv.note_d2h(bytes, dt);
          ctx.count_fused_launch();
          ctx.account_aggregation(0.0);  // count the buffer only
        });
      }
      case PlanNodeKind::kApply: {
        // Fan-both replay: fold one slab into the target panel
        // sequentially — `panel[offs[k]] += vals[k]` in slab order, so
        // the APPLY chain concatenation reproduces the serial ascending
        // accumulation bit for bit. Per-position fold order is all that
        // determinism needs, so the modeled cost may still assume the
        // standard parallel assembly region (partition by panel offset).
        const index_t g = n.agg;
        const index_t t = n.target;
        const offset_t total = plan.agg_entries(g);
        // One aggregated cross-device hop PER SOURCE DEVICE replaces the
        // per-contributor hops: the pre-folded slab ships each distinct
        // panel offset once per producing device, so every source
        // ordinal's price is the UNION footprint of ITS cross-device
        // members' slices — bounded above by the trapezoid of the union
        // row set (computed below against the target's panel rows), by
        // the per-member sum (disjoint members), and by the panel
        // itself. Sibling subtree contributors into a shared separator
        // overlap heavily, which is exactly where this beats the
        // per-contributor pricing — and the per-source split lets each
        // hop charge its actual src→dst link.
        struct SrcUnion {
          index_t src = 0;
          double sum = 0.0;
          std::vector<char> in_col, in_row;
        };
        std::vector<SrcUnion> unions;
        for (const index_t m : plan.agg_members(g)) {
          const std::vector<CrossHop> ch = ex.cross_hops(m, m, t);
          if (ch.empty()) continue;  // only_t fixed: at most one hop
          const auto trows = symb.sn_rows(t);
          SrcUnion* su = nullptr;
          for (SrcUnion& u : unions) {
            if (u.src == ch[0].src) {
              su = &u;
              break;
            }
          }
          if (su == nullptr) {
            unions.push_back({ch[0].src,
                              0.0,
                              std::vector<char>(trows.size(), 0),
                              std::vector<char>(trows.size(), 0)});
            su = &unions.back();
          }
          su->sum += ch[0].entries;
          const index_t wm = symb.sn_width(m);
          const index_t below = symb.sn_below(m);
          const auto mrows = symb.sn_rows(m);
          index_t b0 = 0;
          while (b0 < below && symb.col_to_sn(mrows[wm + b0]) != t) ++b0;
          index_t b1 = b0;
          while (b1 < below && symb.col_to_sn(mrows[wm + b1]) == t) ++b1;
          // Map m's rows from the segment start onward into panel
          // positions (both lists ascending): positions of the segment
          // itself are slab columns, everything from the segment start
          // is a slab row.
          std::size_t p = 0;
          for (index_t a = b0; a < below; ++a) {
            while (p < trows.size() && trows[p] != mrows[wm + a]) ++p;
            if (p >= trows.size()) break;
            su->in_row[p] = 1;
            if (a < b1) su->in_col[p] = 1;
          }
        }
        std::vector<CrossHop> xhops;
        const index_t tord =
            devof.empty() || devof[t] < 0
                ? 0
                : static_cast<index_t>(ex.ord(devof[t]));
        for (const SrcUnion& u : unions) {
          const index_t wt = symb.sn_width(t);
          double tail = 0.0, union_bound = 0.0;
          for (std::size_t p = u.in_row.size(); p-- > 0;) {
            tail += static_cast<double>(u.in_row[p]);
            if (static_cast<index_t>(p) < wt && u.in_col[p] != 0) {
              union_bound += tail;
            }
          }
          const double xe =
              std::min({u.sum, union_bound,
                        static_cast<double>(symb.sn_entries(t))});
          if (xe > 0.0) xhops.push_back({u.src, tord, xe});
        }
        return ex.add(n, [&ctx, &ex, &slab_offs, &slab_vals, g, t, total,
                          xhops] {
          ex.charge(xhops);
          double* panel = ctx.sn_values(t);
          const offset_t* offs = slab_offs[g].data();
          const double* vals = slab_vals[g].data();
          for (offset_t k = 0; k < total; ++k) panel[offs[k]] += vals[k];
          ctx.account_assembly(static_cast<double>(total));
          ctx.count_apply();
          std::vector<offset_t>().swap(slab_offs[g]);
          std::vector<double>().swap(slab_vals[g]);
          ctx.note_agg_free(static_cast<std::size_t>(total) *
                            (sizeof(offset_t) + sizeof(double)));
        });
      }
    }
    return TaskScheduler::kNoResource;  // unreachable: every kind returns
  });

  // Memory throttle: at most ~K update buffers in flight. The edge
  // target's compute may not start until the K-back scatter has freed
  // its buffer. Plain RL has one SCATTER per source in ascending order,
  // so all edges go forward in supernode order and no cycle can form;
  // fan-both has SEVERAL consumers per source (per-target scatters,
  // batch-scatters), so an edge is added only when the window spans
  // strictly increasing source supernodes — every ancestor of a
  // consumer task involves supernodes <= its source, so a forward-only
  // edge can never close a cycle. AGGREGATE/APPLY don't participate:
  // their slabs are tracked by the aggregation-bytes counters and freed
  // by the APPLY chain regardless.
  struct ThrottleEntry {
    std::size_t consumer_task;
    std::size_t compute_task;
    index_t src;
  };
  std::vector<ThrottleEntry> throttled;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    index_t src;
    if (nodes[i].kind == PlanNodeKind::kScatter) {
      src = nodes[i].sn;
    } else if (nodes[i].kind == PlanNodeKind::kBatchScatter) {
      src = nodes[i].batch_first;
    } else {
      continue;
    }
    throttled.push_back(
        {ex.task_of(i), ex.task_of(plan.compute_node(src)), src});
  }
  const std::size_t kWindow = 2 * ctx.workers + 2 + pools.slots;
  for (std::size_t j = kWindow; j < throttled.size(); ++j) {
    if (throttled[j - kWindow].src < throttled[j].src) {
      ex.sched().add_edge(throttled[j - kWindow].consumer_task,
                     throttled[j].compute_task);
    }
  }
  ex.drain();
}

}  // namespace

void run_rl(FactorContext& ctx) {
  if (ctx.scheduled) {
    run_rl_scheduled(ctx);
  } else {
    run_rl_sequential(ctx);
  }
}

}  // namespace spchol::detail
