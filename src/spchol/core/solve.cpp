// Plan-driven triangular solves (the SolvePlan executor) and the serial
// supernode sweep they must match bitwise.
//
// The scheduled path instantiates one task per (plan node, RHS panel):
// the right-hand side is blocked into SolveOptions::rhs_panel columns, so
// a supernode's solve becomes a GEMM-shaped operation over the panel and
// different panels of the same node run concurrently (they touch disjoint
// RHS columns — no edges between panels). Within one panel the forward
// DAG serializes every target's updates in ascending contributor order and
// the backward DAG is the forward update relation reversed. Every node
// body — serial sweep, CPU COMPUTE/SCATTER/BATCH, device node — is
// dense::trsm_left_lower[_trans] on the supernode's gathered rows, whose
// per-entry operation sequence does not depend on the RHS columns or the
// row range a task covers. So scheduled results are bitwise identical to
// solve()/solve_multi() for every worker/stream/panel
// configuration (asserted across the grid in tests/test_solve_parallel.cpp).
//
// Device routing (kGpuHybrid / kGpuOnly): supernodes at or above
// SolveOptions::gpu_threshold run as fused device tasks — gather the
// supernode's rows of the RHS panel, upload panel + L rectangle, run the
// forward or transposed form, scatter back. The backward task writes back
// ONLY the supernode's own w rows: the below rows were read-only inputs,
// and writing them back would race with the concurrent readers that own
// those values. Slots (stream + L-panel + RHS buffers) come from a ranked
// SlotPool: the cached solve plan's pool under the service, else one
// built for the call.
#include "spchol/core/internal.hpp"
#include "spchol/support/timer.hpp"

namespace spchol {

namespace detail {

namespace {

// --- the supernode solve bodies -------------------------------------------
//
// y is n × nrhs column-major in the PERMUTED space. Every path runs a
// supernode through dense::trsm_left_lower[_trans] with the same blocking
// on the supernode's rows gathered into a panel; a task covers some of its
// RHS columns or (SCATTER) some of its below rows, which the routine's
// split invariance makes bitwise equal to the serial sweep's whole call.

/// Supernode s on RHS columns [q0, q1), laid out as on a device node: the
/// rows the form reads are gathered into a per-thread r-row panel, the
/// rows it writes are scattered back. The forward form writes sn_rows(s)
/// [lo, hi) — [0, r) the serial body, [0, w) the COMPUTE node, a range of
/// the rows below w one SCATTER — and also reads [0, w); the transposed
/// form reads all r rows and writes the first w.
void cpu_solve(const SymbolicFactor& symb, const double* values, double* y,
               index_t n, index_t s, index_t lo, index_t hi, index_t q0,
               index_t q1, bool forward) {
  thread_local std::vector<double> panel;
  const auto rows = symb.sn_rows(s);
  const index_t w = symb.sn_width(s);
  const index_t r = static_cast<index_t>(rows.size());
  const index_t pw = q1 - q0;
  panel.resize(std::max(panel.size(), static_cast<std::size_t>(r) * pw));
  double* yp = y + static_cast<std::size_t>(q0) * n;
  auto gather = [&](index_t t0, index_t t1) {
    for (index_t q = 0; q < pw; ++q) {
      double* pq = panel.data() + static_cast<std::size_t>(q) * r;
      const double* yq = yp + static_cast<std::size_t>(q) * n;
      for (index_t t = t0; t < t1; ++t) pq[t] = yq[rows[t]];
    }
  };
  auto scatter = [&](index_t t0, index_t t1) {
    for (index_t q = 0; q < pw; ++q) {
      const double* pq = panel.data() + static_cast<std::size_t>(q) * r;
      double* yq = yp + static_cast<std::size_t>(q) * n;
      for (index_t t = t0; t < t1; ++t) yq[rows[t]] = pq[t];
    }
  };
  const double* l = values + symb.sn_values_offset(s);
  if (forward) {
    gather(0, w);
    gather(std::max(lo, w), hi);
    dense::trsm_left_lower(w, lo, hi, pw, l, r, panel.data(), r);
    scatter(lo, hi);
  } else {
    gather(0, r);
    dense::trsm_left_lower_trans(w, r, pw, l, r, panel.data(), r);
    scatter(0, w);
  }
}

/// Supernodes [first, last] in the serial order on RHS columns [q0, q1):
/// ascending forward, descending backward.
void sweep(const SymbolicFactor& symb, const double* values, double* y,
           index_t n, index_t first, index_t last, index_t q0, index_t q1,
           bool forward) {
  for (index_t i = first; i <= last; ++i) {
    const index_t s = forward ? i : last + first - i;
    cpu_solve(symb, values, y, n, s, 0, symb.sn_nrows(s), q0, q1, forward);
  }
}

// --- scheduled task bodies (device) ---------------------------------------

/// Fused device solve of supernode s over RHS columns [q0, q1): gather
/// all r rows, upload the L rectangle, then
///   forward:  the forward form → scatter all r rows back; the node stands
///             in the forward chains for every one of s's targets;
///   backward: the transposed form → scatter back ONLY s's own w rows
///             (the below rows are other supernodes' solution values —
///             inputs, not outputs).
/// No solve stat reads device time, so the ops record none: they only
/// bump the device's byte and kernel counters.
void gpu_solve_node(const SymbolicFactor& symb, const double* values,
                    double* y, index_t n, gpu::Device& dev,
                    GpuSlot& slot, index_t s, index_t q0, index_t q1,
                    bool forward) {
  auto rows = symb.sn_rows(s);
  const index_t w = symb.sn_width(s);
  const index_t r = static_cast<index_t>(rows.size());
  const index_t pw = q1 - q0;
  double* yp = y + static_cast<std::size_t>(q0) * n;
  const gpu::Stream st{};
  gpu::copy_h2d(dev, st, slot.panel, 0, values + symb.sn_values_offset(s),
                static_cast<std::size_t>(symb.sn_entries(s)), /*async=*/true);
  gpu::gather_rows_h2d(dev, st, rows, yp, n, pw, slot.work, 0);
  if (forward) {
    gpu::trsm_left_lower(dev, st, w, r, pw, slot.panel, 0, r, slot.work, 0,
                         r);
  } else {
    gpu::trsm_left_lower_trans(dev, st, w, r, pw, slot.panel, 0, r,
                               slot.work, 0, r);
    rows = rows.first(static_cast<std::size_t>(w));
  }
  gpu::scatter_rows_d2h(dev, st, rows, r, yp, n, pw, slot.work, 0);
}

// --- the scheduled executor ------------------------------------------------

void scheduled_solve(const SymbolicFactor& symb, const double* values,
                     double* y, index_t n, index_t nrhs,
                     const SolveOptions& opts, const ExecutionResources* res,
                     std::size_t workers, SolveStats* stats) {
  PlanExecutor ex(symb, opts, res, workers);
  TaskScheduler& sched = ex.sched();
  const PlannedSolve& ps = ex.solve_plan();
  const SolvePlan& plan = ps.plan;
  const auto nodes = plan.nodes();
  constexpr std::size_t kNoNode = SolvePlan::kNoNode;

  const index_t pw = opts.rhs_panel;
  const index_t npanels = (nrhs + pw - 1) / pw;

  // Device slots: the (L entries, RHS entries) needs of every (GPU node,
  // panel) task.
  std::size_t num_gpu_nodes = 0;
  for (const SolveNode& nd : nodes) {
    if (nd.kind != SolveNodeKind::kCompute || !nd.on_gpu) continue;
    num_gpu_nodes++;
    const std::size_t r = static_cast<std::size_t>(symb.sn_nrows(nd.sn));
    for (index_t p = 0; p < npanels; ++p) {
      const index_t width = std::min(pw, nrhs - p * pw);
      ex.need(static_cast<std::size_t>(symb.sn_entries(nd.sn)),
              r * static_cast<std::size_t>(width));
    }
  }
  // The needs grow with the RHS width: a solve reuses its cached plan's
  // pool when that was built for a solve at least as wide.
  const auto pool =
      ex.pool<GpuSlot>([](gpu::Device& dv, std::size_t l, std::size_t r) {
        return std::make_unique<GpuSlot>(dv, l, r);
      });

  // --- map (plan node, RHS panel) to scheduler tasks ----------------------
  // Panels touch disjoint RHS columns, so tasks of different panels never
  // need edges; queues rotate with the panel to spread panel work.
  const std::size_t nn = nodes.size();
  std::vector<std::size_t> fwd_task(nn * static_cast<std::size_t>(npanels));
  std::vector<std::size_t> bwd_task(nn * static_cast<std::size_t>(npanels),
                                    kNoNode);
  for (index_t p = 0; p < npanels; ++p) {
    const index_t q0 = p * pw;
    const index_t q1 = std::min(nrhs, q0 + pw);
    for (std::size_t i = 0; i < nn; ++i) {
      const SolveNode& nd = nodes[i];
      const std::size_t queue =
          (nd.queue + static_cast<std::size_t>(p)) % ps.partitions;
      const std::size_t at = i * static_cast<std::size_t>(npanels) +
                             static_cast<std::size_t>(p);
      switch (nd.kind) {
        case SolveNodeKind::kCompute: {
          const index_t s = nd.sn;
          if (nd.on_gpu) {
            const std::size_t ln =
                static_cast<std::size_t>(symb.sn_entries(s));
            const std::size_t rn =
                static_cast<std::size_t>(symb.sn_nrows(s)) *
                static_cast<std::size_t>(q1 - q0);
            auto gpu_task = [&](std::size_t priority, bool forward) {
              return sched.add_task(
                  priority,
                  [&symb, values, y, n, &ex, &pool, s, q0, q1, ln, rn,
                   forward](std::size_t) {
                    auto lease = pool.acquire(ln, rn);
                    gpu_solve_node(symb, values, y, n, ex.device(), *lease,
                                   s, q0, q1, forward);
                  },
                  pool.res, queue);
            };
            fwd_task[at] = gpu_task(nd.fwd_priority, /*forward=*/true);
            bwd_task[at] = gpu_task(nd.bwd_priority, /*forward=*/false);
          } else {
            fwd_task[at] = sched.add_task(
                nd.fwd_priority,
                [&symb, values, y, n, s, q0, q1](std::size_t) {
                  cpu_solve(symb, values, y, n, s, 0, symb.sn_width(s), q0,
                            q1, /*forward=*/true);
                },
                TaskScheduler::kNoResource, queue);
            bwd_task[at] = sched.add_task(
                nd.bwd_priority,
                [&symb, values, y, n, s, q0, q1](std::size_t) {
                  cpu_solve(symb, values, y, n, s, 0, symb.sn_nrows(s), q0,
                            q1, /*forward=*/false);
                },
                TaskScheduler::kNoResource, queue);
          }
          break;
        }
        case SolveNodeKind::kScatter: {
          const index_t s = nd.sn;
          const index_t lo = nd.rows_lo;
          const index_t hi = nd.rows_hi;
          fwd_task[at] = sched.add_task(
              nd.fwd_priority,
              [&symb, values, y, n, s, lo, hi, q0, q1](std::size_t) {
                cpu_solve(symb, values, y, n, s, lo, hi, q0, q1,
                          /*forward=*/true);
              },
              TaskScheduler::kNoResource, queue);
          break;
        }
        case SolveNodeKind::kBatch: {
          const index_t first = nd.batch_first;
          const index_t last = nd.batch_last;
          auto batch_task = [&](std::size_t priority, bool forward) {
            return sched.add_task(
                priority,
                [&symb, values, y, n, first, last, q0, q1,
                 forward](std::size_t) {
                  sweep(symb, values, y, n, first, last, q0, q1, forward);
                },
                TaskScheduler::kNoResource, queue);
          };
          fwd_task[at] = batch_task(nd.fwd_priority, /*forward=*/true);
          bwd_task[at] = batch_task(nd.bwd_priority, /*forward=*/false);
          break;
        }
      }
    }
    // Forward DAG, the fwd → bwd phase pivot per node, and the backward
    // DAG (the forward update relation reversed), all within this panel.
    const std::size_t base = static_cast<std::size_t>(p);
    auto fid = [&](std::size_t node) {
      return fwd_task[node * static_cast<std::size_t>(npanels) + base];
    };
    auto bid = [&](std::size_t node) {
      return bwd_task[node * static_cast<std::size_t>(npanels) + base];
    };
    ex.wire(plan.forward_edges(), fid);
    for (std::size_t i = 0; i < nn; ++i) {
      if (bwd_task[i * static_cast<std::size_t>(npanels) + base] != kNoNode) {
        sched.add_edge(fid(i), bid(i));
      }
    }
    ex.wire(plan.backward_edges(), bid);
  }

  const PlanExecutor::Drained dr = ex.drain();
  if (stats != nullptr) {
    stats->tasks = dr.stats.tasks_run;
    stats->edges = dr.stats.edges;
    stats->steals = dr.stats.steals;
    stats->rhs_panels = npanels;
    stats->gpu_stream_pairs = static_cast<index_t>(pool.slots);
    stats->supernodes_on_gpu = static_cast<index_t>(num_gpu_nodes);
    stats->batches_formed = plan.batches_formed();
    stats->supernodes_batched = plan.supernodes_batched();
    stats->modeled_serial_seconds = dr.serial_seconds;
    stats->modeled_parallel_seconds = dr.parallel_seconds;
  }
}

}  // namespace

void solve_with_resources(const SymbolicFactor& symb,
                          std::span<const double> values,
                          std::span<const double> b, std::span<double> x,
                          index_t nrhs, const SolveOptions& opts,
                          const ExecutionResources* res, SolveStats* stats) {
  validate(opts);
  const index_t n = symb.n();
  SPCHOL_CHECK(nrhs >= 0, "negative nrhs");
  SPCHOL_CHECK(b.size() == static_cast<std::size_t>(n) * nrhs &&
                   x.size() == static_cast<std::size_t>(n) * nrhs,
               "solve size mismatch");
  WallTimer timer;
  if (stats != nullptr) *stats = SolveStats{};

  const std::size_t workers =
      (res != nullptr && res->crew != nullptr)
          ? res->crew->size() + 1
          : resolve_worker_count(opts.workers);
  const bool scheduled =
      runs_scheduled(opts) && nrhs > 0 && symb.num_supernodes() > 0;

  // Permute in (b may alias x; y is a private buffer either way).
  const Permutation& perm = symb.permutation();
  std::vector<double> y(static_cast<std::size_t>(n) * nrhs);
  for (index_t q = 0; q < nrhs; ++q) {
    const double* bq = b.data() + static_cast<std::size_t>(q) * n;
    double* yq = y.data() + static_cast<std::size_t>(q) * n;
    for (index_t k = 0; k < n; ++k) yq[k] = bq[perm.new_to_old(k)];
  }

  if (scheduled) {
    scheduled_solve(symb, values.data(), y.data(), n, nrhs, opts, res,
                    workers, stats);
  } else {
    // The serial sweep: the bitwise reference every scheduled run matches.
    for (const bool forward : {true, false}) {
      sweep(symb, values.data(), y.data(), n, 0, symb.num_supernodes() - 1,
            0, nrhs, forward);
    }
  }

  for (index_t q = 0; q < nrhs; ++q) {
    double* xq = x.data() + static_cast<std::size_t>(q) * n;
    const double* yq = y.data() + static_cast<std::size_t>(q) * n;
    for (index_t k = 0; k < n; ++k) xq[perm.new_to_old(k)] = yq[k];
  }
  if (stats != nullptr) {
    stats->workers = scheduled ? workers : 1;
    stats->seconds = timer.seconds();
  }
}

}  // namespace detail

// --- CholeskyFactor entry points ------------------------------------------

void CholeskyFactor::solve(std::span<const double> b,
                           std::span<double> x) const {
  solve_multi(b, x, 1);
}

void CholeskyFactor::solve_multi(std::span<const double> b,
                                 std::span<double> x, index_t nrhs) const {
  SolveOptions o;
  o.exec = Execution::kCpuSerial;
  o.workers = 1;
  solve_multi(b, x, nrhs, o, nullptr);
}

void CholeskyFactor::solve(std::span<const double> b, std::span<double> x,
                           const SolveOptions& opts,
                           SolveStats* stats) const {
  solve_multi(b, x, 1, opts, stats);
}

void CholeskyFactor::solve_multi(std::span<const double> b,
                                 std::span<double> x, index_t nrhs,
                                 const SolveOptions& opts,
                                 SolveStats* stats) const {
  detail::solve_with_resources(*symb_, values(), b, x, nrhs, opts, nullptr,
                               stats);
}

}  // namespace spchol
