#include "spchol/symbolic/solve_plan.hpp"

#include <algorithm>

#include "spchol/symbolic/exec_plan.hpp"

namespace spchol {

SolvePlan SolvePlan::build(const SymbolicFactor& symb) {
  const index_t ns = symb.num_supernodes();

  SolvePlan plan;
  plan.compute_of_.assign(static_cast<std::size_t>(ns), kNoNode);
  plan.batch_of_.assign(static_cast<std::size_t>(ns), kNoNode);

  const std::vector<SubtreeBatch> defs = pack_subtree_batches(symb, {});
  std::vector<std::size_t> def_of(static_cast<std::size_t>(ns), kNoNode);
  for (std::size_t d = 0; d < defs.size(); ++d) {
    for (index_t s = defs[d].first; s <= defs[d].last; ++s) def_of[s] = d;
    plan.supernodes_batched_ += defs[d].last - defs[d].first + 1;
  }
  plan.batches_formed_ = static_cast<index_t>(defs.size());

  // Forward: scatters drain before computes, exactly as in the
  // factorization plan. Backward: the solve runs root-to-leaf, so
  // priorities descend with the supernode index; the 2·ns base keeps the
  // two phase bands disjoint.
  const std::size_t prio_scatter_base = 0;
  const std::size_t prio_compute_base = static_cast<std::size_t>(ns);
  const std::size_t prio_backward_base = 2 * static_cast<std::size_t>(ns);
  auto bwd_prio = [&](index_t s) {
    return prio_backward_base + static_cast<std::size_t>(ns - 1 - s);
  };

  // Per-supernode scatter lookup (unbatched sources only):
  // targets are ascending within [scatter_ptr[s], scatter_ptr[s+1]).
  std::vector<std::size_t> scatter_ptr(static_cast<std::size_t>(ns) + 1, 0);
  std::vector<std::size_t> scatter_nodes;
  std::vector<index_t> scatter_tgts;

  // --- node emission, ascending in supernode order ------------------------
  for (index_t s = 0; s < ns; ++s) {
    const std::size_t d = def_of[s];
    scatter_ptr[s] = scatter_nodes.size();
    if (d != kNoNode) {
      if (s == defs[d].first) {
        SolveNode b;
        b.kind = SolveNodeKind::kBatch;
        b.batch_first = defs[d].first;
        b.batch_last = defs[d].last;
        b.fwd_priority = prio_scatter_base +
                         static_cast<std::size_t>(defs[d].last);
        b.bwd_priority = bwd_prio(defs[d].last);
        const std::size_t id = plan.nodes_.size();
        plan.nodes_.push_back(b);
        for (index_t m = defs[d].first; m <= defs[d].last; ++m) {
          plan.batch_of_[m] = id;
        }
      }
      continue;
    }
    SolveNode c;
    c.kind = SolveNodeKind::kCompute;
    c.sn = s;
    c.fwd_priority = prio_compute_base + static_cast<std::size_t>(s);
    c.bwd_priority = bwd_prio(s);
    plan.compute_of_[s] = plan.nodes_.size();
    plan.nodes_.push_back(c);
    // One GEMV scatter per contiguous target row segment.
    if (symb.sn_below(s) == 0) continue;
    const std::span<const index_t> rows = symb.sn_rows(s);
    const index_t w = symb.sn_width(s);
    const index_t r = symb.sn_nrows(s);
    index_t k = w;
    while (k < r) {
      const index_t target = symb.col_to_sn(rows[k]);
      const index_t end = symb.sn_end(target);
      index_t k2 = k + 1;
      while (k2 < r && rows[k2] < end) ++k2;
      SolveNode n;
      n.kind = SolveNodeKind::kScatter;
      n.sn = s;
      n.target = target;
      n.rows_lo = k;
      n.rows_hi = k2;
      n.fwd_priority = prio_scatter_base + static_cast<std::size_t>(s);
      const std::size_t id = plan.nodes_.size();
      plan.nodes_.push_back(n);
      scatter_nodes.push_back(id);
      scatter_tgts.push_back(target);
      plan.forward_edges_.emplace_back(plan.compute_of_[s], id);
      k = k2;
    }
  }
  scatter_ptr[ns] = scatter_nodes.size();

  // Node standing in for s's forward push into target t.
  auto scatter_node = [&](index_t s, index_t t) {
    if (plan.batch_of_[s] != kNoNode) return plan.batch_of_[s];
    const auto first = scatter_tgts.begin() +
                       static_cast<offset_t>(scatter_ptr[s]);
    const auto last = scatter_tgts.begin() +
                      static_cast<offset_t>(scatter_ptr[s + 1]);
    const auto it = std::lower_bound(first, last, t);
    SPCHOL_CHECK(it != last && *it == t,
                 "contributor missing a scatter node for its target");
    return scatter_nodes[scatter_ptr[s] +
                         static_cast<std::size_t>(it - first)];
  };

  // --- forward: per-target contributor chains + readiness -----------------
  // contrib[t] ascending — the serial accumulation order into t's panel.
  std::vector<std::vector<index_t>> contrib(static_cast<std::size_t>(ns));
  for (index_t s = 0; s < ns; ++s) {
    for (const index_t t : symb.sn_update_targets(s)) contrib[t].push_back(s);
  }
  for (index_t t = 0; t < ns; ++t) {
    const auto& cs = contrib[t];
    if (cs.empty()) continue;
    std::size_t prev = kNoNode;
    for (const index_t c : cs) {
      const std::size_t wn = scatter_node(c, t);
      if (wn == prev) continue;  // consecutive in-batch contributors
      if (prev != kNoNode) plan.forward_edges_.emplace_back(prev, wn);
      prev = wn;
    }
    const std::size_t entry = plan.compute_node(t);
    if (prev != entry) plan.forward_edges_.emplace_back(prev, entry);
  }

  // --- backward: the forward update relation, edges reversed --------------
  // Backward-solve of s reads exactly the solved panels of s's forward
  // targets, so readiness is (node(t) → node(s)) per update pair — no
  // chains needed, since each backward node writes only its own panel.
  for (index_t s = 0; s < ns; ++s) {
    const std::size_t dst = plan.compute_node(s);
    for (const index_t t : symb.sn_update_targets(s)) {
      const std::size_t src = plan.compute_node(t);
      if (src != dst) plan.backward_edges_.emplace_back(src, dst);
    }
  }
  std::sort(plan.backward_edges_.begin(), plan.backward_edges_.end());
  plan.backward_edges_.erase(
      std::unique(plan.backward_edges_.begin(), plan.backward_edges_.end()),
      plan.backward_edges_.end());
  return plan;
}

}  // namespace spchol
