// ExecutionPlan: the shared task-graph shape of the scheduled numeric
// factorization drivers (RL, RLB, and the hybrid GPU paths).
//
// The planner walks the supernodal elimination tree once and produces a
// DAG of plan nodes:
//
//   * COMPUTE(s)      — panel factorization of supernode s (plus, for RL,
//                       the SYRK producing s's update matrix). `on_gpu`
//                       marks nodes the hybrid executor runs through the
//                       device pipeline.
//   * SCATTER(s, t)   — assembly of s's updates into ONE ancestor t,
//                       one node per (source, target) pair, so updates
//                       of one supernode into different ancestors run
//                       concurrently and independent subtrees never
//                       queue behind each other on a shared ancestor's
//                       chain.
//   * BATCH(a..b)     — a fused task executing the compute AND scatter of
//                       every supernode in the contiguous index range
//                       [a, b] in ascending order.
//
// plus explicit dependency edges:
//
//   * COMPUTE(s) → each SCATTER of s;
//   * per-target contributor chains in ascending source order — every
//     target's storage has exactly one writer at a time, in the
//     sequential accumulation order, so factors are bitwise identical to
//     the serial drivers for every worker/stream/batch setting;
//   * chain tail → the target's own COMPUTE (readiness).
//
// Chain edges (contributor chains, chain tail → COMPUTE) are flagged so
// the scheduler can count chain-serialized waits.
//
// Task grain is a plan transform, not an executor concern, and the plan
// picks it from the symbolic factor alone: adjacent sibling subtrees are
// greedily packed (in ascending child order) into BATCH nodes while
// their dense entries stay below a fixed work budget; see
// pack_subtree_batches. Because a packed run of adjacent sibling
// subtrees covers one CONTIGUOUS postorder index interval, the in-batch
// contributors of any outside target form a contiguous run of that
// target's ascending contributor chain — the batch node simply replaces
// the run, never crossing a chain, which is what preserves bitwise
// identity. A batch's members receive updates only from inside the batch
// (contributors are descendants), so batches need no incoming readiness
// edges of their own. `device_eligible` marks batches whose members are
// all independent leaves (singleton subtrees, no member-to-member
// updates): those may execute as ONE fused batched device launch pair.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "spchol/symbolic/symbolic_factor.hpp"

namespace spchol {

enum class PlanNodeKind : std::uint8_t {
  kCompute,
  kScatter,
  kBatch,
};

struct PlanNode {
  PlanNodeKind kind = PlanNodeKind::kCompute;
  index_t sn = -1;           ///< kCompute / kScatter: the supernode
  index_t target = -1;       ///< kScatter: the target sn
  index_t batch_first = -1;  ///< kBatch: first supernode
  index_t batch_last = -1;   ///< kBatch: last (inclusive)
  bool on_gpu = false;       ///< kCompute: runs the device pipeline
  /// kBatch: every member is an independent leaf (no member updates
  /// another member), so the batch may run as one fused device launch.
  bool device_eligible = false;
  std::size_t priority = 0;  ///< scheduler priority (lower runs first)
};

/// A contiguous postorder run of small sibling subtrees — the unit of
/// task coarsening. Shared by the factorization planner (ExecutionPlan)
/// and the solve planner (SolvePlan) so both coarsen a pattern
/// identically.
struct SubtreeBatch {
  index_t first;     ///< first supernode of the contiguous range
  index_t last;      ///< last supernode (inclusive; a packed subtree root)
  bool leaves_only;  ///< every packed subtree is a singleton
};

/// Greedy sibling packing: walks each parent's child list (and the root
/// list) in ascending order, accumulating ADJACENT subtrees (none with a
/// supernode marked on_gpu) while the batch's dense entries stay below
/// the grain budget, and flushing a batch whenever the next subtree does
/// not fit. The budget is a constant of exec_plan.cpp (calibration
/// there), so the grain is a function of the pattern alone — identical
/// for every worker and stream count. Adjacent sibling subtrees
/// of a postordered supernodal etree tile a contiguous index interval —
/// the property that keeps a batch from ever crossing a target's
/// contributor chain. Returns disjoint ranges sorted ascending.
std::vector<SubtreeBatch> pack_subtree_batches(const SymbolicFactor& symb,
                                               std::span<const char> on_gpu);

struct PlanOptions {
  /// GPU COMPUTE nodes absorb their scatters (RLB's fused device tasks):
  /// the compute node stands in the chains for every one of its targets.
  bool fuse_gpu_scatter = false;
};

class ExecutionPlan {
 public:
  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

  /// Builds the plan. `on_gpu[s]` marks supernodes the executor will run
  /// on the device (never batched); the span is indexed by supernode and
  /// must be empty (nothing on the device) or of length num_supernodes().
  ///
  /// Reuse contract: a built plan is an immutable function of (symbolic
  /// pattern, on_gpu marks, PlanOptions) — it holds no numeric state and
  /// the scheduled drivers only read it, so one plan may back any number
  /// of factorizations, including concurrently, as long as those inputs
  /// match. SolverService caches plans keyed by exactly those inputs
  /// (detail::build_planned_graph).
  static ExecutionPlan build(const SymbolicFactor& symb,
                             std::span<const char> on_gpu,
                             const PlanOptions& opts);

  std::span<const PlanNode> nodes() const noexcept { return nodes_; }
  std::span<const std::pair<std::size_t, std::size_t>> edges()
      const noexcept {
    return edges_;
  }
  /// Parallel to edges(): nonzero entries mark CHAIN edges — same-target
  /// serialization (contributor chains, chain tail → COMPUTE) as opposed to data-flow readiness. The executors forward
  /// the flag to TaskScheduler so chain-serialized waits are countable.
  std::span<const char> edge_chain() const noexcept { return edge_chain_; }

  /// Node performing the compute of s: its batch node when batched,
  /// otherwise its COMPUTE node.
  std::size_t compute_node(index_t sn) const {
    return batch_of_[sn] != kNoNode ? batch_of_[sn] : compute_of_[sn];
  }
  /// Node performing s's scatter into target t: the batch node when s is
  /// batched, the fused compute node for GPU supernodes in
  /// fuse_gpu_scatter mode, and the (s, t) scatter node otherwise.
  std::size_t scatter_node(index_t sn, index_t target) const;
  /// True when sn was coalesced into a BATCH node.
  bool batched(index_t sn) const { return batch_of_[sn] != kNoNode; }

  index_t batches_formed() const noexcept { return batches_formed_; }
  index_t supernodes_batched() const noexcept {
    return supernodes_batched_;
  }

 private:
  std::vector<PlanNode> nodes_;
  std::vector<std::pair<std::size_t, std::size_t>> edges_;
  std::vector<char> edge_chain_;         // parallel to edges_
  std::vector<std::size_t> compute_of_;  // per sn; batch members → batch
  std::vector<std::size_t> batch_of_;    // per sn; kNoNode if unbatched
  // Scatter-node lookup: ids of s's scatter nodes (with their targets)
  // live at [scatter_ptr_[s], scatter_ptr_[s + 1]).
  std::vector<std::size_t> scatter_ptr_;
  std::vector<std::size_t> scatter_nodes_;
  std::vector<index_t> scatter_tgts_;
  bool fuse_gpu_scatter_ = false;
  index_t batches_formed_ = 0;
  index_t supernodes_batched_ = 0;
};

}  // namespace spchol
