// SolverService: solver-as-a-service on top of SolverRuntime — sessions
// share the runtime's worker crew, device, and admission gate, and
// a pattern-keyed cache makes the symbolic phase (ordering + analysis +
// execution plan) a one-time cost per sparsity pattern.
//
// The cache key is an FNV-1a fingerprint of the sparsity pattern
// (dimension + column pointers + row indices) combined with every option
// that shapes the symbolic result: ordering method and ND parameters,
// merge growth cap, partition refinement, supernode mode. Worker counts
// are deliberately EXCLUDED — ordering and analysis are bitwise
// identical for every worker count, so requests that differ only in
// parallelism share one cached SymbolicFactor. Numeric values never
// enter the key: a session created for a matrix with the same pattern
// but different values is a cache hit, which is exactly the
// refactorize-per-timestep workload the service exists for. Hash
// collisions cannot alias patterns: a hit is confirmed by comparing the
// stored column pointers and row indices before reuse.
//
// Per cached pattern the service also caches ExecutionPlans (the
// scheduled drivers' task-graph blueprint), keyed by the plan-shaping
// FactorOptions (method, RLB variant, execution mode, GPU thresholds,
// device-resident reservation), and one SolvePlan, a function of the
// pattern alone. Each cached ExecutionPlan keeps the device slot pool
// its runs lease (gpu::PoolCell), so the pool lives and dies with the
// plan: evicting a pattern or clear_cache() frees its pools once no
// session holds them. Solves run on the host and hold no device memory.
// A warm session therefore runs ZERO symbolic work: it admits, reuses
// the cached plans, runs the numeric factorization on the shared crew
// leasing its plan's device slots — and every subsequent
// solve()/solve_multi() on the same crew — with results bitwise
// identical to a cold, per-call CholeskySolver run.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "spchol/core/solver.hpp"
#include "spchol/service/solver_runtime.hpp"
#include "spchol/support/task_scheduler.hpp"

namespace spchol {

class ExecutionPlan;  // symbolic/exec_plan.hpp: reusable factor plan
class SolvePlan;      // symbolic/solve_plan.hpp: reusable solve plan

namespace detail {
struct AssemblyMap;  // core/internal.hpp: cached A→L value map
struct CachedPlan;   // solver_service.cpp: a factor plan + its pool cell
}

struct ServiceOptions {
  /// Per-session pipeline configuration (sessions may override; see
  /// SolverService::session). Worker counts inside are advisory under
  /// the service: task DAGs run on the runtime crew.
  SolverOptions solver{};
  RuntimeOptions runtime{};
  /// Maximum distinct sparsity patterns cached at once; least recently
  /// used entries are evicted beyond it. Values < 1 are rejected with
  /// InvalidArgument (a service that cannot cache is a plain solver).
  std::size_t cache_capacity = 16;
};

/// Throws InvalidArgument on invalid ServiceOptions (zero
/// cache_capacity, or invalid nested solver/runtime options).
void validate(const ServiceOptions& opts);

/// Per-session counters (snapshot; safe to read while the session
/// factorizes on another thread).
struct SessionStats {
  /// Whether this session's symbolic factor came from the pattern cache
  /// (true ⇒ the session ran no ordering/analysis work at all).
  bool symbolic_cached = false;
  std::size_t factorizations = 0;  ///< numeric factorizations run
  std::size_t solves = 0;          ///< solve()/solve_multi() calls served
  /// Ordering + symbolic seconds this session actually spent (0.0 when
  /// the symbolic factor was served from the cache).
  double analyze_seconds = 0.0;
  double last_factorize_seconds = 0.0;  ///< wall time of last factorize()
  FactorStats last_factor{};            ///< stats of the last factorization
  /// Wall seconds summed over every solve served by this session.
  double solve_seconds = 0.0;
  /// Scheduled solve tasks executed across those solves (0 when every
  /// solve ran the serial sweep).
  std::size_t solve_tasks = 0;
  SolveStats last_solve{};  ///< stats of the most recent solve
};

/// Service-wide counters.
struct ServiceStats {
  std::size_t requests = 0;         ///< session() calls
  std::size_t cache_hits = 0;       ///< served from the pattern cache
  std::size_t cache_misses = 0;     ///< ran ordering + symbolic analysis
  std::size_t cache_evictions = 0;  ///< patterns dropped (LRU, capacity)
  std::size_t patterns_cached = 0;  ///< patterns currently cached
  RuntimeStats runtime{};           ///< shared-runtime counters
};

class SolverService;

/// One client's handle on a (pattern, options) pair: an immutable shared
/// symbolic factor plus per-session numeric state. factorize() may be
/// called repeatedly as the matrix values change; solve() serves the
/// last fully published factor and is safe to call concurrently with a
/// refactorize. Sessions are independent — N sessions may factorize
/// concurrently (bounded by the runtime admission gate) with factors
/// bitwise identical to serial per-call runs. A session must not outlive
/// its service.
class SolverSession {
 public:
  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  /// Numeric factorization of `a`, whose pattern should match the
  /// pattern this session was created for (values may differ): its
  /// values then gather through the cached A→L map. Any other pattern of
  /// the same dimension assembles through a transient map, and an entry
  /// outside the session's symbolic structure throws. Runs on the shared
  /// runtime: admission gate → cached plan → crew + the plan's slots.
  void factorize(const CscMatrix& a);

  /// Solves A x = b against the last published factor. Requires a
  /// completed factorize(); concurrent with refactorizes it serves the
  /// previous complete factor, never a partial one. Scheduled solves run
  /// on the runtime crew from the session's cached SolvePlan (warm
  /// sessions build no solve plan) and are bitwise identical to the
  /// serial sweep.
  std::vector<double> solve(std::span<const double> b) const;

  /// Solves A X = B for nrhs column-major right-hand sides with RHS
  /// panel blocking (SolverOptions::solve.rhs_panel). Same concurrency
  /// and identity guarantees as solve().
  std::vector<double> solve_multi(std::span<const double> b,
                                  index_t nrhs) const;

  bool factorized() const;
  /// The session's (possibly cache-shared) symbolic factor.
  const SymbolicFactor& symbolic() const noexcept { return *symb_; }
  /// Snapshot of the last published numeric factor (null before the
  /// first factorize()).
  std::shared_ptr<const CholeskyFactor> factor() const;
  const SolverOptions& options() const noexcept { return opts_; }
  SessionStats stats() const;

 private:
  friend class SolverService;
  SolverSession(SolverRuntime* runtime, SolverOptions opts,
                std::shared_ptr<const SymbolicFactor> symb,
                std::shared_ptr<const detail::AssemblyMap> assembly,
                std::shared_ptr<detail::CachedPlan> plan,
                std::shared_ptr<const SolvePlan> solve_plan, bool cached,
                double analyze_seconds);

  SolverRuntime* runtime_;
  SolverOptions opts_;
  std::shared_ptr<const SymbolicFactor> symb_;
  /// Cached A→L map of the session's pattern (shared with the cache).
  std::shared_ptr<const detail::AssemblyMap> assembly_;
  /// Cached factor plan and its pool; null when unscheduled.
  std::shared_ptr<detail::CachedPlan> plan_;
  /// Cached solve plan; null when solves run the serial sweep.
  std::shared_ptr<const SolvePlan> solve_plan_;

  /// Serializes this session's factorize() calls (the session-owned
  /// scheduler is reused across them); distinct sessions don't contend.
  std::mutex fact_mu_;
  TaskScheduler sched_;

  /// Guards the published factor + stats (readers snapshot under it).
  mutable std::mutex mu_;
  std::shared_ptr<const CholeskyFactor> factor_;
  mutable SessionStats stats_;  // mutable: solve() const counts itself
};

class SolverService {
 public:
  explicit SolverService(const ServiceOptions& opts = {});
  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Opens a session for `a`'s sparsity pattern with the service-default
  /// SolverOptions. Cache hit: returns immediately with the shared
  /// symbolic factor (zero ordering/analysis work). Miss: runs ordering
  /// (on the runtime crew) + symbolic analysis and caches the result.
  /// Thread-safe; sessions are independent of each other.
  std::shared_ptr<SolverSession> session(const CscMatrix& a_lower);

  /// Same, with per-session SolverOptions. Options that shape the
  /// symbolic result participate in the cache key; worker counts do not.
  std::shared_ptr<SolverSession> session(const CscMatrix& a_lower,
                                         const SolverOptions& solver_opts);

  /// One-shot convenience: session + factorize + solve.
  std::vector<double> solve(const CscMatrix& a_lower,
                            std::span<const double> b);

  SolverRuntime& runtime() noexcept { return runtime_; }
  ServiceStats stats() const;
  /// Drops every cached pattern with its plans, freeing their slot pools
  /// (sessions already holding a shared symbolic factor or plan are
  /// unaffected; a plan's pool is freed when its last session drops it).
  void clear_cache();

 private:
  struct Entry;

  /// Drops every idle slot pool of the cached plans (the runtime pool
  /// ledger's reclaim hook); returns whether it dropped any.
  bool drop_idle_pools();

  ServiceOptions opts_;
  SolverRuntime runtime_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Entry>> entries_;
  std::uint64_t stamp_ = 0;
  std::size_t requests_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace spchol
