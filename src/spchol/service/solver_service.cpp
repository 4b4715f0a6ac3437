#include "spchol/service/solver_service.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "spchol/core/internal.hpp"
#include "spchol/support/worker_crew.hpp"
#include "spchol/support/timer.hpp"

namespace spchol {

namespace detail {

/// A plan the service caches, with the slot pool its runs lease: the
/// pool lives exactly as long as the plan.
template <class Planned>
struct CachedPlan {
  CachedPlan(Planned p, gpu::PoolLedger& ledger)
      : planned(std::move(p)), pool(ledger) {}
  const Planned planned;
  gpu::PoolCell pool;
};

}  // namespace detail

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
/// slot pool: method and variant (RL and RLB pools are different slot
/// types), execution mode + thresholds (the on_gpu marks, which also
/// bound the plan's coarsening) and the resident reservation. Within a
/// pattern's cache entry this identifies a plan/pool shape.
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

/// Fingerprint of the SolveOptions that shape a SolvePlan: execution
/// mode + GPU threshold (the on_gpu marks). rhs_panel is EXCLUDED — the
/// plan is per-panel and identical for every panel width (the executor
/// replicates it across panels at solve time); the plan's pool follows
/// the widest RHS blocking asked of it.
std::uint64_t solve_plan_fingerprint(const SolveOptions& so) {
  Fnv f;
  f.pod(so.exec);
  f.pod(so.gpu_threshold);
  return f.hash();
}

/// A pattern's cached plans of one kind, by fingerprint.
template <class Planned>
using PlanList = std::vector<
    std::pair<std::uint64_t, std::shared_ptr<detail::CachedPlan<Planned>>>>;

/// The plan of fingerprint `fp` in `plans` (guarded by `mu`), built by
/// `build()` outside the lock on a miss; two racing builders keep the
/// first inserted plan.
template <class Planned, class Build>
std::shared_ptr<detail::CachedPlan<Planned>> cached_plan(
    std::mutex& mu, PlanList<Planned>& plans, std::uint64_t fp,
    gpu::PoolLedger& ledger, Build&& build) {
  const auto find_locked = [&] {
    std::shared_ptr<detail::CachedPlan<Planned>> hit;
    for (const auto& [f, plan] : plans) {
      if (f == fp) hit = plan;
    }
    return hit;
  };
  {
    std::lock_guard<std::mutex> lk(mu);
    if (auto hit = find_locked()) return hit;
  }
  auto built = std::make_shared<detail::CachedPlan<Planned>>(build(), ledger);
  std::lock_guard<std::mutex> lk(mu);
  if (auto hit = find_locked()) return hit;
  plans.emplace_back(fp, built);
  return built;
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
    std::shared_ptr<detail::CachedPlan<ExecutionPlan>> plan,
    std::shared_ptr<detail::CachedPlan<SolvePlan>> solve_plan,
    bool cached, double analyze_seconds)
    : runtime_(runtime),
      opts_(std::move(opts)),
      symb_(std::move(symb)),
      assembly_(std::move(assembly)),
      plan_(std::move(plan)),
      solve_plan_(std::move(solve_plan)) {
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
  res.sched = &sched_;
  if (plan_ != nullptr) {
    res.planned = &plan_->planned;
    res.pool = &plan_->pool;
  }
  res.assembly = assembly_.get();
  res.symbolic = symb_;
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
  // Scheduled solves draw on the shared runtime: crew, device, and the
  // session's cached SolvePlan with its slot pool. No scheduler is
  // injected — each solve drains its own, so concurrent solves (and a
  // concurrent refactorize on this session's scheduler) never share
  // mutable scheduler state.
  detail::ExecutionResources res;
  res.crew = &runtime_->crew();
  res.device = &runtime_->device();
  if (solve_plan_ != nullptr) {
    res.planned_solve = &solve_plan_->planned;
    res.pool = &solve_plan_->pool;
  }
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
/// built for it so far, each with its slot pool.
struct SolverService::Entry {
  std::uint64_t key = 0;
  std::shared_ptr<const SymbolicFactor> symb;
  std::shared_ptr<const detail::AssemblyMap> assembly;
  double analyze_seconds = 0.0;
  PlanList<ExecutionPlan> plans;
  PlanList<SolvePlan> solve_plans;
  std::uint64_t stamp = 0;  // bumped on every hit: LRU eviction order
};

SolverService::SolverService(const ServiceOptions& opts)
    : opts_((validate(opts), opts)), runtime_(opts.runtime) {
  runtime_.pools().reclaim = [this] { return drop_idle_pools(); };
}

bool SolverService::drop_idle_pools() {
  std::lock_guard<std::mutex> lk(mu_);
  bool dropped = false;
  for (const auto& e : entries_) {
    for (const auto& [fp, c] : e->plans) dropped |= c->pool.drop_idle();
    for (const auto& [fp, c] : e->solve_plans) dropped |= c->pool.drop_idle();
  }
  return dropped;
}

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

  // Plan resolution: reuse the entry's cached ExecutionPlan and
  // SolvePlan of matching fingerprint, building outside the lock on a
  // miss. Unscheduled sessions carry no plan, serial-solve sessions no
  // solve plan.
  std::shared_ptr<detail::CachedPlan<ExecutionPlan>> plan;
  if (detail::runs_scheduled(solver_opts.factor)) {
    plan = cached_plan(mu_, entry->plans, plan_fingerprint(solver_opts.factor),
                       runtime_.pools(), [&] {
                         return detail::build_planned_graph(
                             *entry->symb, solver_opts.factor);
                       });
  }
  std::shared_ptr<detail::CachedPlan<SolvePlan>> solve_plan;
  if (detail::runs_scheduled(solver_opts.solve)) {
    solve_plan = cached_plan(
        mu_, entry->solve_plans, solve_plan_fingerprint(solver_opts.solve),
        runtime_.pools(), [&] {
          return detail::build_planned_solve(*entry->symb, solver_opts.solve);
        });
  }

  return std::shared_ptr<SolverSession>(new SolverSession(
      &runtime_, solver_opts, entry->symb, entry->assembly, std::move(plan),
      std::move(solve_plan), cached, cached ? 0.0 : entry->analyze_seconds));
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
