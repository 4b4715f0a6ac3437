#include "spchol/service/solver_service.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "spchol/core/internal.hpp"
#include "spchol/support/thread_pool.hpp"
#include "spchol/support/timer.hpp"

namespace spchol {

namespace {

/// FNV-1a 64-bit accumulator. Doubles are hashed by bit pattern, so two
/// option sets key equal iff their bytes are equal (NaN payloads
/// included — validate() rejects them before hashing anyway).
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  /// FNV-1a over 8-byte words instead of bytes: 8x fewer multiply
  /// rounds for the pattern arrays. Trailing bytes fold one at a time.
  void words(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
      std::uint64_t w;
      std::memcpy(&w, b + i, sizeof w);
      h_ ^= w;
      h_ *= 1099511628211ull;
    }
    bytes(b + i, n - i);
  }
  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  std::uint64_t hash() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Fingerprint of the sparsity pattern plus every option that shapes
/// the SYMBOLIC result (ordering + analysis). Worker counts and crew
/// pointers are excluded: the symbolic result is identical for every
/// parallelism level, so such requests must share one cache entry. A
/// key match is only a candidate: find_locked confirms it against the
/// exact pattern.
std::uint64_t pattern_key(const CscMatrix& a, const SolverOptions& so) {
  Fnv f;
  f.pod(a.cols());
  f.words(a.colptr().data(), a.colptr().size() * sizeof(offset_t));
  f.words(a.rowind().data(), a.rowind().size() * sizeof(index_t));
  f.pod(so.ordering_opts.method);
  f.pod(so.ordering_opts.nd.leaf_size);
  f.pod(so.ordering_opts.nd.min_balance);
  f.pod(so.ordering_opts.nd.leaf_method);
  f.pod(so.analyze.merge_growth_cap);
  f.pod(so.analyze.partition_refinement);
  f.pod(so.analyze.supernode_mode);
  return f.hash();
}

/// Fingerprint of the FactorOptions that shape an ExecutionPlan and its
/// arena slot pool: method and variant (RL and RLB pools are different
/// slot types), execution mode + thresholds (the on_gpu marks, which
/// also bound the plan's coarsening) and the resident reservation.
/// Combined with the pattern key this uniquely identifies a plan/pool
/// shape.
std::uint64_t plan_fingerprint(const FactorOptions& fo) {
  Fnv f;
  f.pod(fo.method);
  f.pod(fo.exec);
  f.pod(fo.rlb_variant);
  f.pod(fo.gpu_threshold_rl);
  f.pod(fo.gpu_threshold_rlb);
  f.pod(fo.device_resident_factor);
  return f.hash();
}

/// Fingerprint of the SolveOptions that shape a SolvePlan and its arena
/// slot pool: execution mode + GPU threshold (the on_gpu marks).
/// rhs_panel is EXCLUDED — the plan is per-panel and identical for every
/// panel width (the executor replicates it across panels at solve time).
std::uint64_t solve_plan_fingerprint(const SolveOptions& so) {
  Fnv f;
  f.pod(so.exec);
  f.pod(so.gpu_threshold);
  return f.hash();
}

}  // namespace

void validate(const ServiceOptions& opts) {
  validate(opts.solver);
  validate(opts.runtime);
  if (opts.cache_capacity < 1) {
    throw InvalidArgument(
        "ServiceOptions::cache_capacity must be >= 1; got 0");
  }
}

// --- SolverSession -------------------------------------------------------

SolverSession::SolverSession(
    SolverRuntime* runtime, SolverOptions opts,
    std::shared_ptr<const SymbolicFactor> symb,
    std::shared_ptr<const detail::AssemblyMap> assembly,
    std::shared_ptr<const detail::PlannedGraph> planned,
    std::shared_ptr<const detail::PlannedSolve> planned_solve,
    std::uint64_t pool_key, bool cached, double analyze_seconds)
    : runtime_(runtime),
      opts_(std::move(opts)),
      symb_(std::move(symb)),
      assembly_(std::move(assembly)),
      planned_(std::move(planned)),
      planned_solve_(std::move(planned_solve)),
      pool_key_(pool_key) {
  stats_.symbolic_cached = cached;
  stats_.analyze_seconds = analyze_seconds;
}

void SolverSession::factorize(const CscMatrix& a_lower) {
  SPCHOL_CHECK(a_lower.cols() == symb_->n(),
               "matrix dimension does not match this session's pattern");
  std::lock_guard<std::mutex> run_lk(fact_mu_);
  const WallTimer timer;
  const SolverRuntime::Admission admission = runtime_->admit();
  detail::ExecutionResources res;
  res.crew = &runtime_->crew();
  res.device = &runtime_->device();
  res.arena = &runtime_->arena();
  res.sched = &sched_;
  res.planned = planned_.get();
  res.assembly = assembly_.get();
  res.symbolic = symb_;
  res.pool_key = pool_key_;
  auto factor = std::make_shared<const CholeskyFactor>(
      CholeskyFactor::factorize(a_lower, *symb_, opts_.factor, &res));

  std::lock_guard<std::mutex> lk(mu_);
  stats_.factorizations++;
  stats_.last_factorize_seconds = timer.seconds();
  stats_.last_factor = factor->stats();
  factor_ = std::move(factor);
}

std::vector<double> SolverSession::solve(std::span<const double> b) const {
  return solve_multi(b, 1);
}

std::vector<double> SolverSession::solve_multi(std::span<const double> b,
                                               index_t nrhs) const {
  std::shared_ptr<const CholeskyFactor> factor;
  {
    std::lock_guard<std::mutex> lk(mu_);
    factor = factor_;
  }
  SPCHOL_CHECK(factor != nullptr, "solve requires factorize()");
  // Scheduled solves draw on the shared runtime: crew, device, arena,
  // and the session's cached SolvePlan. No scheduler is injected — each
  // solve drains its own, so concurrent solves (and a concurrent
  // refactorize on this session's scheduler) never share mutable
  // scheduler state.
  detail::ExecutionResources res;
  res.crew = &runtime_->crew();
  res.device = &runtime_->device();
  res.arena = &runtime_->arena();
  res.planned_solve = planned_solve_.get();
  res.pool_key = pool_key_;
  std::vector<double> x(b.size());
  SolveStats sstats;
  detail::solve_with_resources(factor->symbolic(), factor->values(), b, x,
                               nrhs, opts_.solve, &res, &sstats);
  std::lock_guard<std::mutex> lk(mu_);
  stats_.solves++;
  stats_.solve_seconds += sstats.seconds;
  stats_.solve_tasks += sstats.tasks;
  stats_.last_solve = sstats;
  return x;
}

bool SolverSession::factorized() const {
  std::lock_guard<std::mutex> lk(mu_);
  return factor_ != nullptr;
}

std::shared_ptr<const CholeskyFactor> SolverSession::factor() const {
  std::lock_guard<std::mutex> lk(mu_);
  return factor_;
}

SessionStats SolverSession::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

// --- SolverService -------------------------------------------------------

/// One cached pattern: the shared symbolic factor, the A→L assembly map
/// (whose pattern is the exact-match collision guard), and the plans
/// built for it so far.
struct SolverService::Entry {
  std::uint64_t key = 0;
  std::shared_ptr<const SymbolicFactor> symb;
  std::shared_ptr<const detail::AssemblyMap> assembly;
  double analyze_seconds = 0.0;
  std::vector<std::pair<std::uint64_t,
                        std::shared_ptr<const detail::PlannedGraph>>>
      plans;
  std::vector<std::pair<std::uint64_t,
                        std::shared_ptr<const detail::PlannedSolve>>>
      solve_plans;
  std::uint64_t stamp = 0;  // bumped on every hit: LRU eviction order
};

SolverService::SolverService(const ServiceOptions& opts)
    : opts_((validate(opts), opts)), runtime_(opts.runtime) {}

std::shared_ptr<SolverSession> SolverService::session(
    const CscMatrix& a_lower) {
  return session(a_lower, opts_.solver);
}

std::shared_ptr<SolverSession> SolverService::session(
    const CscMatrix& a_lower, const SolverOptions& solver_opts) {
  validate(solver_opts);
  SPCHOL_CHECK(a_lower.square(), "session requires a square matrix");
  const std::uint64_t key = pattern_key(a_lower, solver_opts);

  // Pattern-cache lookup. A key hit is confirmed against the stored
  // pattern before reuse, so hash collisions degrade to misses.
  const auto find_locked = [&](std::uint64_t k) -> std::shared_ptr<Entry> {
    for (auto& e : entries_) {
      if (e->key == k && e->assembly->matches(a_lower)) {
        e->stamp = ++stamp_;
        return e;
      }
    }
    return nullptr;
  };

  std::shared_ptr<Entry> entry;
  bool cached = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    requests_++;
    entry = find_locked(key);
    if (entry != nullptr) {
      hits_++;
      cached = true;
    } else {
      misses_++;
    }
  }

  if (entry == nullptr) {
    // Miss: ordering + symbolic analysis, OUTSIDE the cache lock (two
    // racing misses for one pattern both analyze; the insert re-check
    // keeps the first result). The ordering DAG runs on the runtime crew.
    const WallTimer timer;
    SolverOptions po = solver_opts;
    po.ordering_opts.crew = &runtime_.crew();
    const Permutation fill = compute_ordering(a_lower, po.ordering_opts);
    auto symb = std::make_shared<const SymbolicFactor>(
        SymbolicFactor::analyze(a_lower, fill, po.analyze));

    auto fresh = std::make_shared<Entry>();
    fresh->key = key;
    fresh->assembly = std::make_shared<const detail::AssemblyMap>(
        detail::build_assembly_map(a_lower, *symb));
    fresh->symb = std::move(symb);
    fresh->analyze_seconds = timer.seconds();

    std::lock_guard<std::mutex> lk(mu_);
    entry = find_locked(key);
    if (entry == nullptr) {
      fresh->stamp = ++stamp_;
      entries_.push_back(fresh);
      entry = std::move(fresh);
      // LRU eviction beyond capacity. The new entry carries the largest
      // stamp, so it is never the victim (capacity >= 1).
      while (entries_.size() > opts_.cache_capacity) {
        auto victim = std::min_element(
            entries_.begin(), entries_.end(),
            [](const auto& x, const auto& y) { return x->stamp < y->stamp; });
        entries_.erase(victim);
        evictions_++;
      }
    }
  }

  // Plan resolution for the scheduled drivers: reuse a cached
  // ExecutionPlan of matching shape, building (outside the lock) on a
  // miss. Unscheduled sessions carry no plan.
  std::shared_ptr<const detail::PlannedGraph> planned;
  const std::uint64_t plan_fp = plan_fingerprint(solver_opts.factor);
  if (detail::runs_scheduled(solver_opts.factor)) {
    const auto find_plan_locked =
        [&]() -> std::shared_ptr<const detail::PlannedGraph> {
      for (const auto& [fp, plan] : entry->plans) {
        if (fp == plan_fp) return plan;
      }
      return nullptr;
    };
    {
      std::lock_guard<std::mutex> lk(mu_);
      planned = find_plan_locked();
    }
    if (planned == nullptr) {
      // Plan partitioning follows the crew width (crew + calling
      // thread), the parallelism every session of this runtime runs at.
      auto built = std::make_shared<const detail::PlannedGraph>(
          detail::build_planned_graph(*entry->symb, solver_opts.factor,
                                      runtime_.workers() + 1));
      std::lock_guard<std::mutex> lk(mu_);
      planned = find_plan_locked();
      if (planned == nullptr) {
        entry->plans.emplace_back(plan_fp, built);
        planned = std::move(built);
      }
    }
  }

  // Solve-plan resolution, same shape as the factor plans: reuse a
  // cached SolvePlan of matching fingerprint, building outside the lock
  // on a miss. Serial-solve sessions carry no solve plan.
  std::shared_ptr<const detail::PlannedSolve> planned_solve;
  const std::uint64_t solve_fp = solve_plan_fingerprint(solver_opts.solve);
  if (detail::runs_scheduled(solver_opts.solve)) {
    const auto find_solve_plan_locked =
        [&]() -> std::shared_ptr<const detail::PlannedSolve> {
      for (const auto& [fp, plan] : entry->solve_plans) {
        if (fp == solve_fp) return plan;
      }
      return nullptr;
    };
    {
      std::lock_guard<std::mutex> lk(mu_);
      planned_solve = find_solve_plan_locked();
    }
    if (planned_solve == nullptr) {
      auto built = std::make_shared<const detail::PlannedSolve>(
          detail::build_planned_solve(*entry->symb, solver_opts.solve,
                                      runtime_.workers() + 1));
      std::lock_guard<std::mutex> lk(mu_);
      planned_solve = find_solve_plan_locked();
      if (planned_solve == nullptr) {
        entry->solve_plans.emplace_back(solve_fp, built);
        planned_solve = std::move(built);
      }
    }
  }

  // Arena pools are keyed by pattern AND plan shape (an RL pool must
  // never serve an RLB request, nor a different stream count). The solve
  // executor mixes its own solve-shape fingerprint in on top, so factor
  // and solve pools of one session never alias.
  Fnv pk;
  pk.pod(key);
  pk.pod(plan_fp);

  return std::shared_ptr<SolverSession>(new SolverSession(
      &runtime_, solver_opts, entry->symb, entry->assembly,
      std::move(planned), std::move(planned_solve), pk.hash(), cached,
      cached ? 0.0 : entry->analyze_seconds));
}

std::vector<double> SolverService::solve(const CscMatrix& a_lower,
                                         std::span<const double> b) {
  const auto s = session(a_lower);
  s->factorize(a_lower);
  return s->solve(b);
}

ServiceStats SolverService::stats() const {
  ServiceStats st;
  {
    std::lock_guard<std::mutex> lk(mu_);
    st.requests = requests_;
    st.cache_hits = hits_;
    st.cache_misses = misses_;
    st.cache_evictions = evictions_;
    st.patterns_cached = entries_.size();
  }
  st.runtime = runtime_.stats();
  return st;
}

void SolverService::clear_cache() {
  std::lock_guard<std::mutex> lk(mu_);
  entries_.clear();
}

}  // namespace spchol
