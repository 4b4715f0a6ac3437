// Plan-driven triangular solves (the SolvePlan executor) and the serial
// supernode sweep they must match bitwise.
//
// Every solve runs on the host, whatever SolveOptions::exec says: the
// paper offloads only the factorization's dense kernels and solves with
// the resulting factor on the CPU. kCpuSerial is the serial sweep; every
// other mode runs the scheduled path.
//
// The scheduled path instantiates one task per (plan node, RHS panel):
// the right-hand side is blocked into SolveOptions::rhs_panel columns, so
// a supernode's solve becomes a GEMM-shaped operation over the panel and
// different panels of the same node run concurrently (they touch disjoint
// RHS columns — no edges between panels). Within one panel the forward
// DAG serializes every target's updates in ascending contributor order and
// the backward DAG is the forward update relation reversed. Every node
// body (serial sweep, COMPUTE, SCATTER, BATCH) is
// dense::trsm_left_lower[_trans] on the supernode's gathered rows, whose
// per-entry operation sequence does not depend on the RHS columns or the
// row range a task covers. So scheduled results are bitwise identical to
// solve()/solve_multi() for every worker/panel configuration (asserted
// across the grid in tests/test_solve_parallel.cpp). A solve allocates no
// device memory.
#include <atomic>

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

/// Supernode s on RHS columns [q0, q1): the rows the form reads are
/// gathered into a per-thread r-row panel, the rows it writes are
/// scattered back. The forward form writes sn_rows(s) [lo, hi) — [0, r)
/// the serial body, [0, w) the COMPUTE node, a range of the rows below w
/// one SCATTER — and also reads [0, w); the transposed form ignores
/// [lo, hi), reads all r rows and writes the first w.
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

// --- the scheduled executor ------------------------------------------------

std::atomic<std::size_t> fault_node{SolvePlan::kNoNode};

void scheduled_solve(const SymbolicFactor& symb, const double* values,
                     double* y, index_t n, index_t nrhs,
                     const SolveOptions& opts, const ExecutionResources* res,
                     std::size_t workers, SolveStats* stats) {
  PlanExecutor ex(symb, res, workers);
  TaskScheduler& sched = ex.sched();
  const SolvePlan& plan = ex.solve_plan();
  const auto nodes = plan.nodes();
  constexpr std::size_t kNoNode = SolvePlan::kNoNode;
  const std::size_t fault = fault_node.load();

  const index_t pw = opts.rhs_panel;
  const index_t npanels = (nrhs + pw - 1) / pw;

  // --- map (plan node, RHS panel) to scheduler tasks ----------------------
  // Panels touch disjoint RHS columns, so tasks of different panels never
  // need edges.
  const std::size_t nn = nodes.size();
  std::vector<std::size_t> fwd_task(nn * static_cast<std::size_t>(npanels));
  std::vector<std::size_t> bwd_task(nn * static_cast<std::size_t>(npanels),
                                    kNoNode);
  for (index_t p = 0; p < npanels; ++p) {
    const index_t q0 = p * pw;
    const index_t q1 = std::min(nrhs, q0 + pw);
    for (std::size_t i = 0; i < nn; ++i) {
      const SolveNode& nd = nodes[i];
      const std::size_t at = i * static_cast<std::size_t>(npanels) +
                             static_cast<std::size_t>(p);
      // One task of node i in one phase: fn(forward) on this panel.
      auto add = [&](std::size_t priority, bool forward, auto fn) {
        return sched.add_task(
            priority, [fn, forward, hit = i == fault](std::size_t) {
              if (hit) throw Error("injected solve fault");
              fn(forward);
            });
      };
      const index_t s = nd.sn;
      switch (nd.kind) {
        case SolveNodeKind::kCompute: {
          // Forward: the w own rows (SCATTER nodes push the rest).
          auto node = [&symb, values, y, n, s, q0, q1](bool forward) {
            cpu_solve(symb, values, y, n, s, 0, symb.sn_width(s), q0, q1,
                      forward);
          };
          fwd_task[at] = add(nd.fwd_priority, true, node);
          bwd_task[at] = add(nd.bwd_priority, false, node);
          break;
        }
        case SolveNodeKind::kScatter: {
          const index_t lo = nd.rows_lo;
          const index_t hi = nd.rows_hi;
          fwd_task[at] = add(
              nd.fwd_priority, true,
              [&symb, values, y, n, s, lo, hi, q0, q1](bool forward) {
                cpu_solve(symb, values, y, n, s, lo, hi, q0, q1, forward);
              });
          break;
        }
        case SolveNodeKind::kBatch: {
          const index_t first = nd.batch_first;
          const index_t last = nd.batch_last;
          auto batch = [&symb, values, y, n, first, last, q0,
                        q1](bool forward) {
            sweep(symb, values, y, n, first, last, q0, q1, forward);
          };
          fwd_task[at] = add(nd.fwd_priority, true, batch);
          bwd_task[at] = add(nd.bwd_priority, false, batch);
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
    stats->rhs_panels = npanels;
    stats->batches_formed = plan.batches_formed();
    stats->supernodes_batched = plan.supernodes_batched();
    stats->modeled_serial_seconds = dr.serial_seconds;
    stats->modeled_parallel_seconds = dr.parallel_seconds;
  }
}

}  // namespace

SolveFault::SolveFault(std::size_t node) { fault_node.store(node); }
SolveFault::~SolveFault() { fault_node.store(SolvePlan::kNoNode); }

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
