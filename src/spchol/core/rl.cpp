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
// ExecutionPlan (symbolic/exec_plan.*) and owns the scheduler, the
// device slot pool and the drain. The plan's COMPUTE nodes
// map to panel factorization + SYRK into a per-supernode update buffer,
// SCATTER(s, t) nodes to the assembly of that buffer into ancestor t
// (the last of s's scatters frees it), and BATCH nodes to fused
// compute+scatter sweeps over a run of small sibling subtrees (one fused
// batched device launch pair when the members are independent leaves
// whose combined entries cross the GPU threshold). The plan's edges are
// the supernodal-etree readiness edges plus the per-target ascending
// scatter chains, which simultaneously (a) make every target's storage
// single-writer without locks and (b) reproduce the sequential
// accumulation order, so results are bitwise identical to kCpuSerial for
// every worker/stream/batch setting.
//
// In kGpuHybrid the above-threshold COMPUTE tasks run the §III device
// pipeline on device buffers drawn from a bounded slot pool; a scheduler
// resource token caps in-flight GPU tasks at the pool size. The
// sequential and scheduled drivers run the same node kernels; both only
// record costs, and the replay (core/replay.hpp) turns them into modeled
// time: independent subtree supernodes take one modeled stream pair per
// slot, so one's transfers overlap another's kernels.
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

/// The paper-§III device pipeline for one supernode, on `slot`:
/// H2D(panel) → POTRF → TRSM → async D2H of the factored panel on the
/// copy stream, overlapped with the SYRK → D2H of the update matrix into
/// `u`, which the host waits for (the caller assembles it).
void rl_gpu_compute(FactorContext& ctx, index_t s, GpuSlot& slot,
                    std::vector<double>& u) {
  const SymbolicFactor& symb = ctx.symb;
  gpu::Device& dev = ctx.dev;
  const index_t w = symb.sn_width(s);
  const index_t r = symb.sn_nrows(s);
  const index_t below = r - w;
  double* panel = ctx.sn_values(s);
  const auto [compute, copy] = ctx.streams();

  ctx.count_gpu_supernode();
  const std::size_t entries = static_cast<std::size_t>(r) * w;
  gpu::copy_h2d(dev, compute, slot.panel, 0, panel, entries,
                /*async=*/true);
  try {
    gpu::potrf_lower(dev, compute, w, slot.panel, 0, r);
  } catch (const NotPositiveDefinite& e) {
    throw NotPositiveDefinite(symb.sn_begin(s) + e.column());
  }
  if (below > 0) {
    gpu::trsm_right_lower_trans(dev, compute, below, w, slot.panel, 0, r, w,
                                r);
  }
  // Asynchronous D2H of the factored supernode: the CPU does not need it
  // yet, so it overlaps the update SYRK (paper §III).
  gpu::copy_d2h(dev, copy.waiting_for(compute.last()), panel, slot.panel, 0,
                entries, /*async=*/true);
  if (below > 0) {
    gpu::syrk_lower_nt_beta0(dev, compute, below, w, slot.panel, w, r,
                             slot.work, 0, below);
    u.resize(static_cast<std::size_t>(below) * below);
    gpu::copy_d2h(dev, compute, u.data(), slot.work, 0, u.size(),
                  /*async=*/false);
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
/// supernode (gpu::perf_model batched-kernel cost).
void rl_gpu_batch(FactorContext& ctx, index_t first, index_t last,
                  GpuSlot& slot) {
  const SymbolicFactor& symb = ctx.symb;
  gpu::Device& dev = ctx.dev;
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
    ctx.count_gpu_supernode();
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
  const auto [compute, copy] = ctx.streams();
  gpu::copy_h2d(dev, compute, slot.panel, 0, stage.data(), panel_total,
                /*async=*/true);
  gpu::batched_panel_factor(dev, compute, panels, slot.panel);
  ctx.count_fused_launch();
  gpu::copy_d2h(dev, copy.waiting_for(compute.last()),
                stage.data(), slot.panel, 0, panel_total, /*async=*/true);
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const gpu::BatchedPanel& p = panels[i];
    std::memcpy(ctx.sn_values(first + static_cast<index_t>(i)),
                stage.data() + p.panel_off,
                static_cast<std::size_t>(p.r) * p.w * sizeof(double));
  }
  if (update_total == 0) return;

  gpu::batched_syrk_update(dev, compute, panels, slot.panel, slot.work);
  ctx.count_fused_launch();
  std::vector<double> ustage(update_total);
  gpu::copy_d2h(dev, compute, ustage.data(), slot.work, 0, update_total,
                /*async=*/false);
  double entries = 0.0;
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const gpu::BatchedPanel& p = panels[i];
    if (p.r == p.w) continue;
    entries += rl_assemble(ctx, first + static_cast<index_t>(i),
                           ustage.data() + p.update_off);
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
  GpuSlot slot(ctx.dev, panel_max, update_max);
  if (panel_max > 0) ctx.gpu_stream_pairs = 1;

  for (index_t s = 0; s < ns; ++s) {
    const auto step = ctx.step();
    if (ctx.on_gpu(s)) {
      rl_gpu_compute(ctx, s, slot, u);
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
  const ExecutionPlan& plan = ex.plan();
  const auto nodes = plan.nodes();

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

  // Buffer needs of every GPU task (supernodes AND device batches).
  for (std::size_t i = 0; hybrid && i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    if (n.kind == PlanNodeKind::kCompute && n.on_gpu) {
      const std::size_t below = static_cast<std::size_t>(symb.sn_below(n.sn));
      ex.need(static_cast<std::size_t>(symb.sn_entries(n.sn)), below * below,
              n.sn, n.sn);
    } else if (n.kind == PlanNodeKind::kBatch && n.device_eligible) {
      const auto [p, u] = batch_needs(n);
      if (static_cast<offset_t>(p) < ctx.opts.gpu_threshold_rl) continue;
      batch_on_dev[i] = 1;
      ex.need(p, u, n.batch_first, n.batch_last);
    }
  }

  // Bounded slot pool.
  const auto pool =
      ex.pool<GpuSlot>([](gpu::Device& dv, std::size_t p, std::size_t u) {
        return std::make_unique<GpuSlot>(dv, p, u);
      });
  ctx.gpu_stream_pairs = static_cast<index_t>(pool.slots);

  // Per-supernode update buffers: allocated by COMPUTE (the device path
  // fills them through its final D2H), consumed by one SCATTER per
  // target and released by the last. Batches carry their own transient
  // scratch instead.
  std::vector<std::vector<double>> ubuf(static_cast<std::size_t>(ns));
  std::vector<std::atomic<int>> scatters_left(static_cast<std::size_t>(ns));
  for (const PlanNode& n : nodes) {
    if (n.kind == PlanNodeKind::kScatter) scatters_left[n.sn]++;
  }

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
        // Device COMPUTE: a pooled slot big enough for s runs the §III
        // pipeline; the update matrix lands in ubuf[s] for the SCATTER.
        const std::size_t below = static_cast<std::size_t>(symb.sn_below(s));
        const std::size_t need_panel =
            static_cast<std::size_t>(symb.sn_entries(s));
        return ex.add(
            n,
            [&ctx, &pool, &ubuf, s, need_panel, below] {
              auto lease = pool.acquire(need_panel, below * below);
              rl_gpu_compute(ctx, s, *lease, ubuf[s]);
            },
            pool.res);
      }
      case PlanNodeKind::kScatter: {
        // s's update into ONE target; the last of s's scatters frees it.
        const index_t s = n.sn;
        const index_t t = n.target;
        return ex.add(n, [&ctx, &ubuf, &scatters_left, s, t] {
          ctx.account_assembly(rl_assemble(ctx, s, ubuf[s].data(), t));
          if (scatters_left[s].fetch_sub(1) == 1) {
            std::vector<double>().swap(ubuf[s]);
          }
        });
      }
      case PlanNodeKind::kBatch: {
        const index_t first = n.batch_first;
        const index_t last = n.batch_last;
        if (batch_on_dev[i]) {
          const auto [need_panel, need_update] = batch_needs(n);
          return ex.add(
              n,
              [&ctx, &pool, first, last, need_panel, need_update] {
                auto lease = pool.acquire(need_panel, need_update);
                rl_gpu_batch(ctx, first, last, *lease);
              },
              pool.res);
        }
        // Fused CPU sweep: compute then assemble each member in
        // ascending order — exactly the sequential driver's pattern
        // (shared scratch, zeroed per member), so the bits match it.
        // BatchScope gathers the members' modeled costs and charges the
        // batch as one fused call group + one fused assembly region.
        return ex.add(n, [&ctx, first, last] {
          FactorContext::BatchScope batch(ctx);
          std::vector<double> u;
          for (index_t s = first; s <= last; ++s) {
            rl_cpu_compute(ctx, s, u);
            if (ctx.symb.sn_below(s) == 0) continue;
            ctx.account_assembly(rl_assemble(ctx, s, u.data()));
          }
        });
      }
    }
    return TaskScheduler::kNoResource;  // unreachable: every kind returns
  });

  // Memory throttle: at most ~K update buffers in flight. A source's
  // compute may not start until every scatter of the source K back has
  // run (the last one frees its buffer). Sources ascend and every edge
  // points from a lower to a higher supernode, so no cycle can form.
  std::vector<index_t> sources;  // sources with scatter nodes, ascending
  std::vector<std::vector<std::size_t>> scatter_tasks(
      static_cast<std::size_t>(ns));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].kind != PlanNodeKind::kScatter) continue;
    const index_t s = nodes[i].sn;
    if (scatter_tasks[s].empty()) sources.push_back(s);
    scatter_tasks[s].push_back(ex.task_of(i));
  }
  const std::size_t kWindow = 2 * ctx.workers + 2 + pool.slots;
  for (std::size_t j = kWindow; j < sources.size(); ++j) {
    const std::size_t compute = ex.task_of(plan.compute_node(sources[j]));
    for (const std::size_t t : scatter_tasks[sources[j - kWindow]]) {
      ex.sched().add_edge(t, compute);
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
