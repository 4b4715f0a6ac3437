#include "spchol/core/factor.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "spchol/core/internal.hpp"
#include "spchol/core/solver.hpp"
#include "spchol/matrix/coo.hpp"
#include "spchol/support/timer.hpp"

namespace spchol {

const char* to_string(Method m) {
  switch (m) {
    case Method::kRL:
      return "RL";
    case Method::kRLB:
      return "RLB";
    case Method::kLeftLooking:
      return "LL";
  }
  return "?";
}

const char* to_string(Execution e) {
  switch (e) {
    case Execution::kCpuSerial:
      return "cpu-serial";
    case Execution::kCpuParallel:
      return "cpu-parallel";
    case Execution::kGpuHybrid:
      return "gpu-hybrid";
    case Execution::kGpuOnly:
      return "gpu-only";
  }
  return "?";
}

/// Rejects malformed FactorOptions up front (the PR 3/PR 4 validation
/// convention) instead of silently clamping them mid-driver.
void validate(const FactorOptions& o) {
  if (o.cpu_workers < 0) {
    throw InvalidArgument("FactorOptions::cpu_workers must be >= 0 (0 = "
                          "hardware concurrency); got " +
                          std::to_string(o.cpu_workers));
  }
  if (o.gpu_threshold_rl < 0 || o.gpu_threshold_rlb < 0) {
    throw InvalidArgument("FactorOptions GPU thresholds must be >= 0");
  }
  gpu::validate(o.device, "FactorOptions::device");
}

void validate(const SolveOptions& o) {
  if (o.workers < 0) {
    throw InvalidArgument("SolveOptions::workers must be >= 0 (0 = "
                          "hardware concurrency); got " +
                          std::to_string(o.workers));
  }
  if (o.rhs_panel < 1) {
    throw InvalidArgument("SolveOptions::rhs_panel must be >= 1; got " +
                          std::to_string(o.rhs_panel));
  }
  if (o.gpu_threshold < 0) {
    throw InvalidArgument("SolveOptions::gpu_threshold must be >= 0; got " +
                          std::to_string(o.gpu_threshold));
  }
}

namespace detail {

void cpu_factor_panel(FactorContext& ctx, index_t s) {
  const index_t w = ctx.symb.sn_width(s);
  const index_t r = ctx.symb.sn_nrows(s);
  double* panel = ctx.sn_values(s);
  try {
    dense::potrf_lower_parallel(ctx.crew, ctx.kernel_threads(), w, panel, r);
  } catch (const NotPositiveDefinite& e) {
    throw NotPositiveDefinite(ctx.symb.sn_begin(s) + e.column());
  }
  ctx.account_cpu(dense::flops_potrf(w));
  if (r > w) {
    ctx.cpu_trsm(r - w, w, panel, r, panel + w, r);
  }
}

double rl_assemble(FactorContext& ctx, index_t s, const double* u,
                   index_t only) {
  const SymbolicFactor& symb = ctx.symb;
  const index_t w = symb.sn_width(s);
  const index_t below = symb.sn_below(s);
  if (below == 0) return 0.0;
  const auto rows = symb.sn_rows(s);
  const index_t ldu = below;
  double entries = 0.0;

  // Walk the below-diagonal rows in segments per target supernode; the
  // relative indices of ALL remaining rows inside the target are produced
  // by one two-pointer merge per target (they are reused for every column
  // of the segment).
  std::vector<index_t> rel(static_cast<std::size_t>(below));
  index_t b0 = 0;  // below-row cursor
  while (b0 < below) {
    const index_t target = symb.col_to_sn(rows[w + b0]);
    index_t b1 = b0;
    while (b1 < below && symb.col_to_sn(rows[w + b1]) == target) ++b1;
    if (only >= 0 && target != only) {
      b0 = b1;
      continue;
    }
    // Relative indices of rows[w+b0 .. end) within the target's row list.
    const auto trows = symb.sn_rows(target);
    std::size_t t = 0;
    for (index_t b = b0; b < below; ++b) {
      const index_t rr = rows[w + b];
      while (t < trows.size() && trows[t] < rr) ++t;
      SPCHOL_CHECK(t < trows.size() && trows[t] == rr,
                   "update row missing from ancestor structure");
      rel[b] = static_cast<index_t>(t);
    }
    double* tvals = ctx.sn_values(target);
    const index_t ldt = symb.sn_nrows(target);
    const index_t tfirst = symb.sn_begin(target);
    // Columns b in [b0, b1) of the update matrix target supernode `target`;
    // each column is written by exactly one task (safe to parallelize).
    parallel_for(
        ctx.crew, b0, b1, ctx.kernel_threads(),
        [&](index_t lo, index_t hi) {
          for (index_t b = lo; b < hi; ++b) {
            const index_t tcol = rows[w + b] - tfirst;
            double* tcolp = tvals + static_cast<offset_t>(tcol) * ldt;
            const double* ucol = u + static_cast<offset_t>(b) * ldu;
            for (index_t a = b; a < below; ++a) {
              tcolp[rel[a]] += ucol[a];
            }
          }
        },
        /*grain=*/1);
    entries += 0.5 * static_cast<double>(b1 - b0) *
               static_cast<double>((below - b0) + (below - b1 + 1));
    b0 = b1;
  }
  return entries;
}

AssemblyMap build_assembly_map(const CscMatrix& a,
                               const SymbolicFactor& symb) {
  SPCHOL_CHECK(a.square() && a.cols() == symb.n(),
               "matrix/symbolic dimension mismatch");
  const index_t n = a.cols();
  AssemblyMap m;
  m.colptr = a.colptr();
  m.rowind = a.rowind();
  const std::size_t nnz = m.rowind.size();
  m.dest.resize(nnz);
  // Bucket A's entries by their column c of PAPᵀ's lower triangle,
  // remembering each entry's row r there.
  const Permutation& perm = symb.permutation();
  std::vector<offset_t> head(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> prow(nnz);
  for (index_t j = 0; j < n; ++j) {
    const index_t nj = perm.old_to_new(j);
    for (offset_t p = m.colptr[j]; p < m.colptr[j + 1]; ++p) {
      const index_t ni = perm.old_to_new(m.rowind[p]);
      prow[p] = std::max(ni, nj);
      head[std::min(ni, nj) + 1]++;
    }
  }
  for (index_t c = 0; c < n; ++c) head[c + 1] += head[c];
  std::vector<offset_t> order(nnz);
  {
    std::vector<offset_t> next(head.begin(), head.end() - 1);
    for (index_t j = 0; j < n; ++j) {
      const index_t nj = perm.old_to_new(j);
      for (offset_t p = m.colptr[j]; p < m.colptr[j + 1]; ++p) {
        const index_t c = std::min(perm.old_to_new(m.rowind[p]), nj);
        order[next[c]++] = p;
      }
    }
  }
  // Per supernode, a row → panel-position lookup resolves every entry of
  // its columns.
  std::vector<index_t> pos(static_cast<std::size_t>(n), -1);
  for (index_t s = 0; s < symb.num_supernodes(); ++s) {
    const auto rows = symb.sn_rows(s);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      pos[rows[t]] = static_cast<index_t>(t);
    }
    const offset_t ld = static_cast<offset_t>(rows.size());
    for (index_t c = symb.sn_begin(s); c < symb.sn_end(s); ++c) {
      const offset_t col = symb.sn_values_offset(s) +
                           static_cast<offset_t>(c - symb.sn_begin(s)) * ld;
      for (offset_t k = head[c]; k < head[c + 1]; ++k) {
        const offset_t p = order[k];
        const index_t t = pos[prow[p]];
        SPCHOL_CHECK(t >= 0, "A entry outside the symbolic structure");
        m.dest[static_cast<std::size_t>(p)] = col + t;
      }
    }
    for (const index_t r : rows) pos[r] = -1;
  }
  // An entry above the diagonal whose mirror (j, i) is stored too lands
  // where that mirror — earlier, in column i — already did.
  for (index_t j = 0; j < n; ++j) {
    for (offset_t p = m.colptr[j]; p < m.colptr[j + 1]; ++p) {
      const index_t i = m.rowind[p];
      if (i < j && std::binary_search(m.rowind.begin() + m.colptr[i],
                                      m.rowind.begin() + m.colptr[i + 1],
                                      j)) {
        m.dest[static_cast<std::size_t>(p)] =
            -1 - m.dest[static_cast<std::size_t>(p)];
      }
    }
  }
  return m;
}

}  // namespace detail

CholeskyFactor CholeskyFactor::factorize(const CscMatrix& a_lower,
                                         const SymbolicFactor& symb,
                                         const FactorOptions& opts) {
  return factorize(a_lower, symb, opts, nullptr);
}

CholeskyFactor CholeskyFactor::factorize(
    const CscMatrix& a_lower, const SymbolicFactor& symb,
    const FactorOptions& opts, const detail::ExecutionResources* res) {
  SPCHOL_CHECK(a_lower.square() && a_lower.cols() == symb.n(),
               "matrix/symbolic dimension mismatch");
  validate(opts);
  SPCHOL_CHECK(res == nullptr || res->symbolic == nullptr ||
                   res->symbolic.get() == &symb,
               "injected symbolic owner and symb disagree");
  WallTimer timer;
  CholeskyFactor f;
  f.symb_ = res != nullptr && res->symbolic != nullptr
                ? res->symbolic
                : std::make_shared<const SymbolicFactor>(symb);
  f.values_.assign(static_cast<std::size_t>(symb.factor_values()), 0.0);

  // Assemble PAPᵀ into the supernode panels through the A→L map: the
  // injected one when it was built for this pattern, else a transient
  // one from the same builder.
  std::optional<detail::AssemblyMap> own_map;
  const detail::AssemblyMap* map = res != nullptr ? res->assembly : nullptr;
  if (map == nullptr || !map->matches(a_lower)) {
    map = &own_map.emplace(detail::build_assembly_map(a_lower, symb));
  }
  map->gather(a_lower.values(), f.values_);

  detail::FactorContext ctx(*f.symb_, f.values_, opts, res);
  try {
    switch (opts.method) {
      case Method::kRL:
        detail::run_rl(ctx);
        break;
      case Method::kRLB:
        detail::run_rlb(ctx);
        break;
      case Method::kLeftLooking:
        detail::run_left_looking(ctx);
        break;
    }
  } catch (const NotPositiveDefinite& e) {
    // Report the column in ORIGINAL indices.
    throw NotPositiveDefinite(symb.permutation().new_to_old(e.column()));
  }

  // Every modeled number comes from one replay of this call's own DAG
  // over the costs its nodes recorded — the sequential drivers' steps
  // run as a chain — so it is exact per call even on a shared runtime.
  // device_peak_bytes stays an absolute watermark.
  FactorStats& st = f.stats_;
  if (ctx.graph.size() == 0) ctx.graph = TaskGraph::chain(ctx.records.size());
  detail::replay(ctx.graph, ctx.records,
                 {ctx.lanes, static_cast<std::size_t>(ctx.gpu_stream_pairs)},
                 st);
  st.device_peak_bytes = ctx.dev.mem_peak();
  st.wall_seconds = timer.seconds();
  st.supernodes_on_gpu = ctx.supernodes_on_gpu;
  st.total_supernodes = symb.num_supernodes();
  st.num_cpu_blas_calls = ctx.num_cpu_blas_calls.load();
  st.flops = symb.flops();
  st.scheduler_tasks = ctx.sched_stats.tasks_run;
  st.scheduler_max_ready = ctx.sched_stats.max_ready_depth;
  st.scheduler_threads_used = ctx.sched_stats.threads_used;
  st.scheduler_workers = ctx.sched_stats.workers;
  st.symbolic = symb.stats();
  st.gpu_stream_pairs = ctx.gpu_stream_pairs;
  st.scheduler_resource_waits = ctx.sched_stats.resource_waits;
  st.scheduler_edges = ctx.sched_stats.edges;
  st.batches_formed = ctx.batches_formed;
  st.supernodes_batched = ctx.supernodes_batched;
  st.fused_device_launches = ctx.fused_device_launches;
  st.scheduler_chain_waits = ctx.sched_stats.chain_waits;
  st.modeled_task_serial_seconds = ctx.modeled_task_serial_seconds;
  st.modeled_task_parallel_seconds = ctx.modeled_task_parallel_seconds;
  return f;
}

double CholeskyFactor::entry(index_t i, index_t j) const {
  SPCHOL_CHECK(i >= 0 && i < symb_->n() && j >= 0 && j < symb_->n(),
               "entry index out of range");
  if (i < j) return 0.0;
  const index_t s = symb_->col_to_sn(j);
  const index_t pos = symb_->row_position(s, i);
  if (pos < 0) return 0.0;
  const offset_t jl = j - symb_->sn_begin(s);
  return values_[symb_->sn_values_offset(s) + jl * symb_->sn_nrows(s) + pos];
}

CscMatrix CholeskyFactor::to_csc_lower() const {
  CooMatrix coo(symb_->n(), symb_->n());
  for (index_t s = 0; s < symb_->num_supernodes(); ++s) {
    const auto rows = symb_->sn_rows(s);
    const index_t r = static_cast<index_t>(rows.size());
    const double* panel = values_.data() + symb_->sn_values_offset(s);
    for (index_t jl = 0; jl < symb_->sn_width(s); ++jl) {
      const index_t j = symb_->sn_begin(s) + jl;
      for (index_t t = jl; t < r; ++t) {
        coo.add(rows[t], j, panel[static_cast<offset_t>(jl) * r + t]);
      }
    }
  }
  return coo.to_csc();
}

// solve() / solve_multi() and the scheduled plan-driven overloads live in
// core/solve.cpp alongside the SolvePlan executor.

double CholeskyFactor::solve_refined(const CscMatrix& a_lower,
                                     std::span<const double> b,
                                     std::span<double> x,
                                     int max_iterations) const {
  const index_t n = symb_->n();
  SPCHOL_CHECK(a_lower.square() && a_lower.cols() == n,
               "solve_refined matrix mismatch");
  solve(b, x);
  // ‖A‖∞ once, and A·x carried over from the accepted candidate: every
  // iteration costs one solve and one product.
  const double anorm = detail::sym_lower_inf_norm(a_lower);
  std::vector<double> ax(static_cast<std::size_t>(n));
  a_lower.sym_lower_matvec(x, ax);
  double best = detail::relative_residual(ax, x, b, anorm);
  std::vector<double> r(static_cast<std::size_t>(n));
  std::vector<double> dx(static_cast<std::size_t>(n));
  std::vector<double> candidate(static_cast<std::size_t>(n));
  std::vector<double> candidate_ax(static_cast<std::size_t>(n));
  for (int it = 0; it < max_iterations; ++it) {
    for (index_t i = 0; i < n; ++i) r[i] = b[i] - ax[i];
    solve(r, dx);
    for (index_t i = 0; i < n; ++i) candidate[i] = x[i] + dx[i];
    a_lower.sym_lower_matvec(candidate, candidate_ax);
    const double res = detail::relative_residual(candidate_ax, candidate, b,
                                                 anorm);
    if (res >= best) break;  // refinement stopped helping
    std::copy(candidate.begin(), candidate.end(), x.begin());
    ax.swap(candidate_ax);
    best = res;
  }
  return best;
}

}  // namespace spchol
