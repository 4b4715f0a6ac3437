// SolvePlan: the task-graph shape of the scheduled triangular solves,
// mirroring ExecutionPlan for the factorization (PR 5 architecture).
//
// One walk over the supernodal elimination tree emits BOTH phases:
//
//   forward  (L y = b):
//     * COMPUTE(s)      — TRSV-shaped in-panel forward substitution of
//                         supernode s's w columns. For `on_gpu` supernodes
//                         the node is a fused device solve (gather → TRSM
//                         → GEMM update → scatter) absorbing the scatters.
//     * SCATTER(s, t)   — GEMV-shaped update: subtract L(below, :)·y(s)
//                         from target supernode t's entries. One node per
//                         (source, target) row segment, so one
//                         supernode's pushes into different ancestors run
//                         concurrently; `rows_lo/rows_hi` precompute the
//                         segment of sn_rows(s) owned by t.
//     * BATCH(a..b)     — fused forward sweep over a contiguous run of
//                         small sibling subtrees, members ascending.
//
//     Edges: COMPUTE(s) → each SCATTER of s; per-target contributor
//     chains in ascending source order (every target's right-hand-side
//     entries have exactly one writer at a time, in the serial
//     accumulation order — the same invariant the factorization plan
//     upholds, and what makes the scheduled solve bitwise identical to
//     the serial sweep); chain tail → the target's own COMPUTE.
//
//   backward (Lᵀ x = y):
//     The backward dependency relation is the FORWARD update relation
//     with every edge reversed: backward-solve of s reads the solved
//     entries of exactly the targets s pushed into during the forward
//     phase, and writes only s's own panel entries. So no chains are
//     needed — backward_edges() holds the transposed (target → source)
//     readiness pairs over the per-supernode backward nodes (one per
//     COMPUTE/BATCH node; batches execute members DESCENDING, the serial
//     backward order). The executor adds the phase edge forward(s) →
//     backward(s) per node.
//
// Coarsening reuses pack_subtree_batches (shared with ExecutionPlan): a
// packed run of adjacent sibling subtrees covers one contiguous postorder
// interval, so in-batch contributors of any outside target form a
// contiguous run of that target's chain and the batch node simply
// replaces the run. A batch's members receive forward contributions only
// from inside the batch (contributors are descendants), and their
// backward reads outside the batch are exactly the members' targets.
//
// A built plan is immutable and holds no numeric state: it is a function
// of (pattern, on_gpu marks) alone, shared by any number of concurrent
// solves, and cached by SolverService under the pattern key
// (detail::build_planned_solve). RHS panel blocking is an EXECUTOR
// concern: the executor instantiates one task per (node, RHS panel),
// panels being fully independent.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "spchol/symbolic/symbolic_factor.hpp"

namespace spchol {

enum class SolveNodeKind : std::uint8_t { kCompute, kScatter, kBatch };

struct SolveNode {
  SolveNodeKind kind = SolveNodeKind::kCompute;
  index_t sn = -1;           ///< kCompute / kScatter: the supernode
  index_t target = -1;       ///< kScatter: the target supernode
  /// kScatter: the segment [rows_lo, rows_hi) of sn_rows(sn) owned by
  /// `target` (absolute positions, rows_lo >= sn_width(sn)).
  index_t rows_lo = 0;
  index_t rows_hi = 0;
  index_t batch_first = -1;  ///< kBatch: first supernode of the range
  index_t batch_last = -1;   ///< kBatch: last supernode (inclusive)
  bool on_gpu = false;       ///< kCompute: fused device solve
  std::size_t fwd_priority = 0;  ///< forward-phase scheduler priority
  std::size_t bwd_priority = 0;  ///< backward-phase priority (root first)
};

class SolvePlan {
 public:
  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

  /// Builds the plan. `on_gpu[s]` marks supernodes the executor routes
  /// through the device (never batched); the span is indexed by
  /// supernode and must be empty (nothing on the device) or of length
  /// num_supernodes().
  static SolvePlan build(const SymbolicFactor& symb,
                         std::span<const char> on_gpu);

  std::span<const SolveNode> nodes() const noexcept { return nodes_; }
  /// Forward-phase dependency edges over node ids.
  std::span<const std::pair<std::size_t, std::size_t>> forward_edges()
      const noexcept {
    return forward_edges_;
  }
  /// Backward-phase readiness pairs (ancestor node → descendant node)
  /// over the per-supernode backward nodes, i.e. the COMPUTE/BATCH node
  /// ids (kScatter nodes have no backward counterpart). Sorted,
  /// deduplicated.
  std::span<const std::pair<std::size_t, std::size_t>> backward_edges()
      const noexcept {
    return backward_edges_;
  }

  /// Node performing the solve of s in either phase: its batch node when
  /// batched, otherwise its COMPUTE node.
  std::size_t compute_node(index_t sn) const {
    return batch_of_[sn] != kNoNode ? batch_of_[sn] : compute_of_[sn];
  }
  /// True when sn was coalesced into a BATCH node.
  bool batched(index_t sn) const { return batch_of_[sn] != kNoNode; }

  index_t batches_formed() const noexcept { return batches_formed_; }
  index_t supernodes_batched() const noexcept {
    return supernodes_batched_;
  }

 private:
  std::vector<SolveNode> nodes_;
  std::vector<std::pair<std::size_t, std::size_t>> forward_edges_;
  std::vector<std::pair<std::size_t, std::size_t>> backward_edges_;
  std::vector<std::size_t> compute_of_;  // per sn; batch members → kNoNode
  std::vector<std::size_t> batch_of_;    // per sn; kNoNode if unbatched
  index_t batches_formed_ = 0;
  index_t supernodes_batched_ = 0;
};

}  // namespace spchol
