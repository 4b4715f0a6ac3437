// Fill-reducing ordering, organized as a staged pipeline mirroring the
// symbolic AnalyzePipeline (GraphStage → DissectStage → LeafStage):
// adjacency construction, then — for nested dissection — the separator
// recursion as a dynamically-spawned task DAG on the shared
// TaskScheduler (OrderingOptions::workers), with leaf pieces ordered by
// RCM/minimum-degree as parallel leaf tasks. Every piece owns one
// contiguous slice of the output permutation whose position is fixed by
// arithmetic at split time, so the permutation is IDENTICAL to the
// serial path for every worker count. The paper's pipeline uses nested
// dissection (METIS); the alternatives are provided for comparison.
#pragma once

#include "spchol/graph/nested_dissection.hpp"
#include "spchol/support/permutation.hpp"

namespace spchol {

class WorkerCrew;  // support/worker_crew.hpp: persistent worker threads

enum class OrderingMethod {
  kNatural,           ///< identity (no reordering)
  kRcm,               ///< reverse Cuthill–McKee
  kNestedDissection,  ///< BFS vertex-separator nested dissection (default)
  kMinimumDegree,     ///< AMD-style approximate minimum degree
};

const char* to_string(OrderingMethod m);

/// Options of the staged ordering pipeline.
struct OrderingOptions {
  OrderingMethod method = OrderingMethod::kNestedDissection;
  NdOptions nd{};
  /// Threads the nested-dissection task DAG runs on, the calling thread
  /// included. 0 = hardware concurrency, 1 = serial (no thread started);
  /// negative values are rejected with InvalidArgument. The permutation
  /// is identical for every value (matrices below an internal size
  /// floor, and the inherently sequential whole-graph RCM/MD methods,
  /// always take the serial path).
  int workers = 0;
  /// Optional persistent worker crew (injected by SolverRuntime). When
  /// non-null the nested-dissection task DAG runs on these long-lived
  /// threads plus the calling thread (TaskScheduler::run_on) instead of
  /// on a per-call crew of `workers` − 1 threads; the permutation is
  /// identical either way. Non-owning; must outlive the call.
  WorkerCrew* crew = nullptr;
};

/// Throws InvalidArgument on invalid OrderingOptions: negative workers,
/// or NdOptions violations (see validate(const NdOptions&)).
void validate(const OrderingOptions& opts);

/// Execution statistics of one compute_ordering() call. Stage seconds
/// are wall time on the serial path and summed task time on the
/// scheduled path.
struct OrderingStats {
  double total_seconds = 0.0;    ///< wall time of the whole ordering
  double graph_seconds = 0.0;    ///< adjacency construction (GraphStage)
  double dissect_seconds = 0.0;  ///< separator/split piece tasks
  /// Leaf orderings (RCM/MD on leaf pieces); the whole-graph RCM/MD
  /// methods account their single direct ordering here too.
  double leaf_seconds = 0.0;
  /// Sum of measured task durations including the serial GraphStage, and
  /// that work replayed through the scheduler's greedy list schedule at
  /// `workers` workers (spawn edges included) plus the serial GraphStage
  /// prefix — the modeled ordering time, independent of how many real
  /// cores the measuring machine had (the repo's modeled-time
  /// convention; see TaskScheduler::modeled_makespan).
  double task_seconds = 0.0;
  double modeled_parallel_seconds = 0.0;
  std::size_t workers = 1;        ///< resolved worker count
  std::size_t tasks_run = 0;      ///< scheduler tasks executed (0 = serial)
  std::size_t tasks_spawned = 0;  ///< tasks spawned by the ND recursion
  std::size_t pieces = 0;         ///< recursion pieces processed
  std::size_t leaves = 0;         ///< pieces ordered directly
};

/// Computes a fill-reducing permutation for a symmetric matrix given its
/// lower triangle; fills `stats` when non-null.
Permutation compute_ordering(const CscMatrix& lower,
                             const OrderingOptions& opts,
                             OrderingStats* stats = nullptr);

/// Legacy entry: serial pipeline (workers = 1) with the given method.
Permutation compute_ordering(const CscMatrix& lower, OrderingMethod method,
                             const NdOptions& nd_opts = {});

}  // namespace spchol
