// High-level facade: ordering → symbolic analysis → numeric factorization
// → triangular solves, mirroring the paper's full solution pipeline
// (METIS ND + supernode merging + partition refinement + RL/RLB).
//
// Thread-safety: analyze() and factorize() are mutating calls and must
// not race each other, but every const accessor — solve(), stats(),
// analyzed()/factorized(), the timing getters — may be called
// concurrently with them from other threads. Readers snapshot the
// published factor/symbolic state under an internal mutex and then work
// on the snapshot outside the lock, so a solve() that started before a
// concurrent factorize() finished uses the complete previous factor,
// never a half-written one. This is what lets SolverService sessions
// serve solves while sibling sessions (or a refactorize of the same
// session) run.
#pragma once

#include <memory>
#include <mutex>

#include "spchol/core/factor.hpp"
#include "spchol/graph/ordering.hpp"

namespace spchol {

struct SolverOptions {
  /// Fill-reducing ordering stage: method, ND options, and the worker
  /// count of the ordering task DAG (the ordering analog of
  /// FactorOptions::cpu_workers). Symbolic analysis is serial.
  OrderingOptions ordering_opts{};
  AnalyzeOptions analyze{};
  FactorOptions factor{};
  /// Solve-stage configuration (scheduled SolvePlan execution, RHS panel
  /// blocking, device routing). Used by solve()/solve_multi().
  SolveOptions solve{};
};

/// Validates all three stage option sets (ordering, analyze, factor),
/// throwing InvalidArgument on the first violation. CholeskySolver
/// calls this at analyze() and SolverService at session creation, so a
/// malformed option set fails before any ordering/symbolic work runs
/// rather than deep inside the numeric driver.
void validate(const SolverOptions& opts);

class CholeskySolver {
 public:
  explicit CholeskySolver(SolverOptions opts = {}) : opts_(std::move(opts)) {}

  const SolverOptions& options() const noexcept { return opts_; }

  /// Ordering + symbolic analysis. Reusable across factorizations of
  /// matrices with the same pattern. Throws InvalidArgument on malformed
  /// SolverOptions (validated up front, before the ordering runs).
  void analyze(const CscMatrix& a_lower);

  /// Numeric factorization (runs analyze() first if it has not been run).
  void factorize(const CscMatrix& a_lower);

  /// Solves A x = b. Requires factorize(). Safe to call concurrently
  /// with factorize()/analyze() on other threads: solves against the
  /// last fully published factor. Runs the plan-driven scheduled solve
  /// configured by SolverOptions::solve (bitwise identical to the serial
  /// sweep) and accumulates solve timing into stats().
  std::vector<double> solve(std::span<const double> b) const;

  /// Solves A X = B for nrhs column-major right-hand sides, with the RHS
  /// blocked into SolverOptions::solve.rhs_panel panels. Same concurrency
  /// and identity guarantees as solve().
  std::vector<double> solve_multi(std::span<const double> b,
                                  index_t nrhs) const;

  /// One-shot convenience.
  static std::vector<double> solve(const CscMatrix& a_lower,
                                   std::span<const double> b,
                                   SolverOptions opts = {});

  bool analyzed() const;
  bool factorized() const;
  /// The published symbolic factor / numeric factor. The reference stays
  /// valid until the NEXT analyze()/factorize() call completes (the
  /// underlying object is shared-ptr owned; concurrent readers that need
  /// it past that point should copy what they need while it is current).
  const SymbolicFactor& symbolic() const;
  const CholeskyFactor& factor() const;
  /// Snapshot of the last factorization's stats (factor stats + the
  /// ordering stage). By value so it is safe to read while another
  /// thread refactorizes.
  FactorStats stats() const;

  // --- end-to-end wall timing of the pipeline phases ---------------------
  /// Wall seconds of the last analyze() call (ordering + symbolic).
  double analyze_seconds() const;
  /// Wall seconds of the ordering stage of the last analyze().
  double ordering_seconds() const;
  /// Wall seconds of the symbolic stage of the last analyze().
  double symbolic_seconds() const;
  /// Wall seconds of the last factorize() call, EXCLUDING the analyze it
  /// may have run first.
  double factorize_seconds() const;
  /// Full solve-pipeline latency so far: analyze + factorize.
  double pipeline_seconds() const;
  /// Wall seconds summed over every solve()/solve_multi() call against
  /// the current factor (reset by factorize()) — the solve-side
  /// counterpart of factorize_seconds().
  double solve_seconds() const;
  /// Stats of the most recent solve()/solve_multi() call (by value).
  SolveStats last_solve_stats() const;

  /// Ordering pipeline statistics of the last analyze() (by value; safe
  /// to read while another thread re-analyzes).
  OrderingStats ordering_stats() const;

 private:
  SolverOptions opts_;
  /// Guards every member below. Mutating calls compute the expensive
  /// pieces into locals and publish under the lock; const accessors
  /// snapshot under the lock and work outside it.
  mutable std::mutex mu_;
  std::shared_ptr<const SymbolicFactor> symb_;
  std::shared_ptr<const CholeskyFactor> factor_;
  OrderingStats ordering_stats_{};
  FactorStats stats_{};  // factor stats + the ordering stage, see stats()
  double analyze_seconds_ = 0.0;
  double ordering_seconds_ = 0.0;
  double symbolic_seconds_ = 0.0;
  double factorize_seconds_ = 0.0;
  // Solve-side accumulators (mutable: solve() is const and publishes its
  // timing under mu_ like every other reader-visible field).
  mutable double solve_seconds_ = 0.0;
  mutable std::size_t solve_calls_ = 0;
  mutable std::size_t solve_tasks_ = 0;
  mutable SolveStats last_solve_{};
};

/// ‖b − A x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞), A given by its lower triangle.
double relative_residual(const CscMatrix& a_lower, std::span<const double> x,
                         std::span<const double> b);

}  // namespace spchol
