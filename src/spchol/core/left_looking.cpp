// Supernodal LEFT-LOOKING Cholesky — the classic alternative the paper's
// right-looking family is positioned against ([1] shows RL/RLB are
// "superior to or competitive with other methods in terms of both time
// and storage"). Provided as a CPU baseline for bench_baselines.
//
// For each supernode s (left to right): gather the updates of every
// already-factored descendant d whose row structure reaches into s's
// columns (one DGEMM per (d, s) pair over the segment of d's rows inside
// s, scattered through relative indices), then factor s's panel. The
// descendants that reach s are maintained in linked worklists, with a
// per-descendant cursor walking its row list upward — the standard
// CHOLMOD-style bookkeeping.
//
// Parallel path (ctx.scheduled): left-looking is a PULL model — supernode
// s writes only its own panel and reads the final panels of its
// descendants — so one task per supernode suffices, with an edge d → s
// for every gather pair. The worklist evolution is purely structural, so
// the sequential gather order is precomputed symbolically and replayed
// inside each task, keeping results bitwise identical to kCpuSerial.
#include <vector>

#include "spchol/core/internal.hpp"

namespace spchol::detail {

namespace {

/// One gather: descendant d contributes the segment [k0, k1) of its row
/// list (the rows inside the target's columns) and everything below.
struct Gather {
  index_t d;
  index_t k0;
  index_t k1;
};

/// Symbolic replay of the sequential worklist walk: plan[s] lists the
/// gathers of supernode s in exactly the order run_ll_sequential applies
/// them. Pure structure — no numerics.
std::vector<std::vector<Gather>> gather_plan(const SymbolicFactor& symb) {
  const index_t ns = symb.num_supernodes();
  std::vector<std::vector<Gather>> plan(static_cast<std::size_t>(ns));
  std::vector<index_t> head(static_cast<std::size_t>(ns), -1);
  std::vector<index_t> next(static_cast<std::size_t>(ns), -1);
  std::vector<index_t> cursor(static_cast<std::size_t>(ns), 0);
  for (index_t s = 0; s < ns; ++s) {
    const index_t sbegin = symb.sn_begin(s);
    const index_t send = symb.sn_end(s);
    const auto srows = symb.sn_rows(s);
    index_t d = head[s];
    head[s] = -1;
    while (d != -1) {
      const index_t dnext = next[d];
      const auto drows = symb.sn_rows(d);
      const index_t k0 = cursor[d];
      index_t k1 = k0;
      while (k1 < static_cast<index_t>(drows.size()) && drows[k1] < send) {
        ++k1;
      }
      plan[s].push_back({d, k0, k1});
      cursor[d] = k1;
      if (k1 < static_cast<index_t>(drows.size())) {
        const index_t t = symb.col_to_sn(drows[k1]);
        next[d] = head[t];
        head[t] = d;
      }
      d = dnext;
    }
    if (static_cast<index_t>(srows.size()) > send - sbegin) {
      cursor[s] = send - sbegin;
      const index_t t = symb.col_to_sn(srows[cursor[s]]);
      next[s] = head[t];
      head[t] = s;
    }
  }
  return plan;
}

/// Applies one gather into supernode s. `u` and `rel` are caller scratch
/// (per-worker in the scheduled driver).
void apply_gather(FactorContext& ctx, index_t s, const Gather& g,
                  std::vector<double>& u, std::vector<index_t>& rel) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t sbegin = symb.sn_begin(s);
  const auto srows = symb.sn_rows(s);
  double* svals = ctx.sn_values(s);
  const index_t lds = symb.sn_nrows(s);

  const auto drows = symb.sn_rows(g.d);
  const index_t ldd = symb.sn_nrows(g.d);
  const index_t wd = symb.sn_width(g.d);
  const double* dvals = ctx.sn_values(g.d);
  const index_t k0 = g.k0;
  const index_t m = static_cast<index_t>(drows.size()) - k0;
  const index_t nseg = g.k1 - k0;
  SPCHOL_CHECK(nseg > 0, "descendant reached target with empty segment");

  // U = -L_d[k0:, :] · L_d[k0:k1, :]ᵀ  (m × nseg).
  std::fill(u.begin(), u.begin() + static_cast<std::size_t>(m) * nseg, 0.0);
  dense::gemm_nt_minus_parallel(ctx.crew, ctx.kernel_threads(), m, nseg, wd,
                                dvals + k0, ldd, dvals + k0, ldd,
                                u.data(), m);
  ctx.account_cpu(dense::flops_gemm(m, nseg, wd));

  // Scatter the lower trapezoid into s through relative indices.
  rel.resize(static_cast<std::size_t>(m));
  {
    std::size_t t = 0;
    for (index_t k = 0; k < m; ++k) {
      const index_t row = drows[k0 + k];
      while (t < srows.size() && srows[t] < row) ++t;
      SPCHOL_CHECK(t < srows.size() && srows[t] == row,
                   "descendant row missing from target structure");
      rel[k] = static_cast<index_t>(t);
    }
  }
  parallel_for(
      ctx.crew, 0, nseg, ctx.kernel_threads(),
      [&](index_t lo, index_t hi) {
        for (index_t c = lo; c < hi; ++c) {
          const index_t tcol = drows[k0 + c] - sbegin;
          double* tcolp = svals + static_cast<offset_t>(tcol) * lds;
          const double* ucol = u.data() + static_cast<offset_t>(c) * m;
          for (index_t k = c; k < m; ++k) tcolp[rel[k]] += ucol[k];
        }
      },
      /*grain=*/1);
  ctx.account_assembly(0.5 * static_cast<double>(nseg) *
                       static_cast<double>(m + (m - nseg) + 1));
}

std::size_t ll_scratch_entries(const SymbolicFactor& symb) {
  std::size_t scratch_max = 0;
  for (index_t s = 0; s < symb.num_supernodes(); ++s) {
    const std::size_t below = static_cast<std::size_t>(symb.sn_below(s));
    scratch_max = std::max(scratch_max, below * below);
  }
  return scratch_max;
}

void run_ll_sequential(FactorContext& ctx) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t ns = symb.num_supernodes();

  // Worklists: head[s] → first descendant currently updating s;
  // next[d] chains descendants; cursor[d] is the position in d's row list
  // where the segment targeting the current supernode starts.
  std::vector<index_t> head(static_cast<std::size_t>(ns), -1);
  std::vector<index_t> next(static_cast<std::size_t>(ns), -1);
  std::vector<index_t> cursor(static_cast<std::size_t>(ns), 0);

  // Scratch for one descendant's update segment (m × nseg ≤ below²).
  std::vector<double> u(ll_scratch_entries(symb));
  std::vector<index_t> rel;

  for (index_t s = 0; s < ns; ++s) {
    const auto step = ctx.step();
    const index_t sbegin = symb.sn_begin(s);
    const index_t send = symb.sn_end(s);
    const auto srows = symb.sn_rows(s);

    // --- gather: apply every pending descendant update into s ---
    index_t d = head[s];
    head[s] = -1;
    while (d != -1) {
      const index_t dnext = next[d];
      const auto drows = symb.sn_rows(d);
      const index_t k0 = cursor[d];
      index_t k1 = k0;
      while (k1 < static_cast<index_t>(drows.size()) && drows[k1] < send) {
        ++k1;
      }
      apply_gather(ctx, s, {d, k0, k1}, u, rel);

      // Advance d's cursor past this segment and re-link it to the next
      // supernode its structure reaches.
      cursor[d] = k1;
      if (k1 < static_cast<index_t>(drows.size())) {
        const index_t t = symb.col_to_sn(drows[k1]);
        next[d] = head[t];
        head[t] = d;
      }
      d = dnext;
    }

    // --- factor the panel, then enqueue s for its first target ---
    cpu_factor_panel(ctx, s);
    if (static_cast<index_t>(srows.size()) > send - sbegin) {
      cursor[s] = send - sbegin;
      const index_t t = symb.col_to_sn(srows[cursor[s]]);
      next[s] = head[t];
      head[t] = s;
    }
  }
}

void run_ll_scheduled(FactorContext& ctx) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t ns = symb.num_supernodes();
  const auto plan = gather_plan(symb);
  const std::size_t scratch = ll_scratch_entries(symb);

  // Per-worker gather scratch, allocated lazily on first use.
  std::vector<std::vector<double>> u(ctx.crew.size() + 1);
  std::vector<std::vector<index_t>> rel(ctx.crew.size() + 1);

  TaskScheduler sched;
  std::vector<std::size_t> task(static_cast<std::size_t>(ns));
  for (index_t s = 0; s < ns; ++s) {
    task[s] = sched.add_task(
        static_cast<std::size_t>(s),
        [&ctx, &plan, &u, &rel, scratch, s](std::size_t worker) {
          FactorContext::NodeScope scope(ctx, static_cast<std::size_t>(s));
          if (!plan[s].empty() && u[worker].size() < scratch) {
            u[worker].resize(scratch);
          }
          for (const Gather& g : plan[s]) {
            apply_gather(ctx, s, g, u[worker], rel[worker]);
          }
          cpu_factor_panel(ctx, s);
        });
  }
  for (index_t s = 0; s < ns; ++s) {
    for (const Gather& g : plan[s]) sched.add_edge(task[g.d], task[s]);
  }

  ctx.records.assign(static_cast<std::size_t>(ns), {});
  ctx.sched_stats = sched.run_on(ctx.crew);
  ctx.graph = sched.graph();
  ctx.lanes = ctx.workers;
}

}  // namespace

void run_left_looking(FactorContext& ctx) {
  SPCHOL_CHECK(ctx.opts.exec == Execution::kCpuSerial ||
                   ctx.opts.exec == Execution::kCpuParallel,
               "left-looking factorization is a CPU-only baseline");
  if (ctx.scheduled) {
    run_ll_scheduled(ctx);
  } else {
    run_ll_sequential(ctx);
  }
}

}  // namespace spchol::detail
