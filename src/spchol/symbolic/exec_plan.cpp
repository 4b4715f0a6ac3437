#include "spchol/symbolic/exec_plan.hpp"

#include <algorithm>

namespace spchol {

namespace {

// Task grain: the plan coarsens by this one constant and nothing else,
// so the grain is a function of the pattern alone. A BATCH task's work
// is its members' dense entries, kept below kGrainEntries; a supernode
// that large keeps its own tasks. Calibration (4-vCPU x86, Release,
// 4 workers):
//  * Per-task cost. Packing PFlow_742_small (2,365 supernodes, nearly
//    all of 156 entries) into batches of 16 supernodes through
//    SolverService took the factorization from 4,729 to 153 tasks and 21.0 to 15.4 ms, and the
//    solve from 7,094 to 304 tasks and 17.8 to 2.3 ms: 1.2 µs per factor
//    task and 2.3 µs per solve task, ~9 µs per supernode per
//    refactorize + solve.
//  * Per-supernode work. A kCpuSerial factorization of one dense
//    supernode takes 22 µs at 1,024 entries (32×32), 67 µs at 4,096
//    (64×64) and 207 µs at 16,384 (128×128).
//  * Budget. A larger budget saves more per-task cost but serializes
//    more work per task. Budgets of 4,096 / 8,192 / 16,384 entries plan
//    PFlow_742_small to 95 / 49 / 26 factor tasks (factorize 7.0-7.1 /
//    6.4-6.9 / 6.0-9.8 ms, solve 1.9-2.1 / 1.7-1.8 / 1.4-2.1 ms), while
//    the RLB hybrid factorizations of the cold_files grids (12 patterns,
//    per-call, summed medians) took 292-300 / 287-320 / 305-325 ms
//    against 291-297 ms with one task per supernode, and their solves
//    61 / 49-56 / 44-46 ms against 113-135 ms.
//    4,096 is the largest budget that leaves those factorizations within
//    run-to-run noise of the per-supernode plan. The KKT wide stencil's
//    smallest supernode (19,008 entries, grid3d_wide(15,15,15,2)) is far
//    above it.
constexpr offset_t kGrainEntries = 4096;

/// Per-target contributor lists of the update DAG: srcs[t] holds, in
/// ascending order, every supernode whose row structure reaches t
/// (inverse of sn_update_targets()).
std::vector<std::vector<index_t>> update_contributors(
    const SymbolicFactor& symb) {
  const index_t ns = symb.num_supernodes();
  std::vector<std::vector<index_t>> srcs(static_cast<std::size_t>(ns));
  for (index_t s = 0; s < ns; ++s) {
    for (const index_t t : symb.sn_update_targets(s)) {
      srcs[t].push_back(s);  // ascending: s is the outer loop
    }
  }
  return srcs;
}

}  // namespace

std::vector<SubtreeBatch> pack_subtree_batches(const SymbolicFactor& symb,
                                               std::span<const char> on_gpu) {
  std::vector<SubtreeBatch> defs;
  const index_t ns = symb.num_supernodes();

  // Subtree sizes and dense entries, bottom-up over the postorder
  // (children precede parents). A GPU-marked supernode counts as a whole
  // grain, so no subtree holding one is ever packed.
  std::vector<index_t> size(static_cast<std::size_t>(ns), 1);
  std::vector<offset_t> work(static_cast<std::size_t>(ns), 0);
  for (index_t s = 0; s < ns; ++s) {
    const bool gpu = !on_gpu.empty() && on_gpu[s] != 0;
    work[s] += gpu ? kGrainEntries : symb.sn_entries(s);
    const index_t p = symb.sn_parent(s);
    if (p >= 0) {
      size[p] += size[s];
      work[p] += work[s];
    }
  }

  // Batches claim whole subtree ranges; a claimed supernode's own child
  // group must not pack again (a chain would otherwise yield overlapping
  // batches at every level), so groups are visited TOP-DOWN: the root
  // list first, then parents in descending postorder index.
  std::vector<char> claimed(static_cast<std::size_t>(ns), 0);
  index_t run_first = -1, run_last = -1, run_count = 0;
  offset_t run_work = 0;
  bool run_leaves = true;
  auto flush = [&]() {
    // A batch of one supernode saves nothing over the plain task pair.
    if (run_count >= 2) {
      defs.push_back({run_first, run_last, run_leaves});
      for (index_t s = run_first; s <= run_last; ++s) claimed[s] = 1;
    }
    run_count = 0;
    run_work = 0;
    run_leaves = true;
  };
  auto pack_children = [&](std::span<const index_t> children) {
    for (const index_t c : children) {
      if (work[c] >= kGrainEntries) {
        flush();
        continue;
      }
      const index_t begin = c - size[c] + 1;
      if (run_count > 0 && (begin != run_last + 1 ||
                            run_work + work[c] >= kGrainEntries)) {
        flush();
      }
      if (run_count == 0) run_first = begin;
      run_last = c;
      run_count += size[c];
      run_work += work[c];
      run_leaves = run_leaves && size[c] == 1;
    }
    flush();
  };

  std::vector<index_t> roots;
  for (index_t s = 0; s < ns; ++s) {
    if (symb.sn_parent(s) < 0) roots.push_back(s);
  }
  pack_children(roots);
  for (index_t p = ns - 1; p >= 0; --p) {
    if (claimed[p]) continue;
    pack_children(symb.sn_children(p));
  }
  // Batches are discovered per parent group, so sort them into index
  // order (ranges are disjoint) for deterministic, ascending emission.
  std::sort(defs.begin(), defs.end(),
            [](const SubtreeBatch& a, const SubtreeBatch& b) {
              return a.first < b.first;
            });
  return defs;
}

std::size_t ExecutionPlan::scatter_node(index_t sn, index_t target) const {
  if (batch_of_[sn] != kNoNode) return batch_of_[sn];
  if (fuse_gpu_scatter_ && nodes_[compute_of_[sn]].on_gpu) {
    return compute_of_[sn];
  }
  const std::size_t lo = scatter_ptr_[sn];
  const std::size_t hi = scatter_ptr_[sn + 1];
  const auto first = scatter_tgts_.begin() + static_cast<offset_t>(lo);
  const auto last = scatter_tgts_.begin() + static_cast<offset_t>(hi);
  const auto it = std::lower_bound(first, last, target);
  SPCHOL_CHECK(it != last && *it == target,
               "contributor missing a scatter node for its target");
  return scatter_nodes_[lo + static_cast<std::size_t>(it - first)];
}

ExecutionPlan ExecutionPlan::build(const SymbolicFactor& symb,
                                   std::span<const char> on_gpu,
                                   std::span<const index_t> queue_of,
                                   const PlanOptions& opts) {
  const index_t ns = symb.num_supernodes();
  SPCHOL_CHECK(on_gpu.empty() ||
                   on_gpu.size() == static_cast<std::size_t>(ns),
               "on_gpu span size mismatch");
  SPCHOL_CHECK(queue_of.empty() ||
                   queue_of.size() == static_cast<std::size_t>(ns),
               "queue_of span size mismatch");

  ExecutionPlan plan;
  plan.fuse_gpu_scatter_ = opts.fuse_gpu_scatter;
  plan.compute_of_.assign(static_cast<std::size_t>(ns), kNoNode);
  plan.batch_of_.assign(static_cast<std::size_t>(ns), kNoNode);
  plan.scatter_ptr_.assign(static_cast<std::size_t>(ns) + 1, 0);

  const std::vector<SubtreeBatch> defs = pack_subtree_batches(symb, on_gpu);
  std::vector<std::size_t> def_of(static_cast<std::size_t>(ns), kNoNode);
  for (std::size_t d = 0; d < defs.size(); ++d) {
    for (index_t s = defs[d].first; s <= defs[d].last; ++s) def_of[s] = d;
    plan.supernodes_batched_ += defs[d].last - defs[d].first + 1;
  }
  plan.batches_formed_ = static_cast<index_t>(defs.size());

  auto queue = [&](index_t s) {
    return queue_of.empty() ? std::size_t{0}
                            : static_cast<std::size_t>(queue_of[s]);
  };
  auto add_edge = [&plan](std::size_t from, std::size_t to,
                          bool chain = false) {
    plan.edges_.emplace_back(from, to);
    plan.edge_chain_.push_back(chain ? 1 : 0);
  };
  const std::size_t prio_scatter_base = 0;  // drain scatters first
  const std::size_t prio_compute_base = static_cast<std::size_t>(ns);

  // --- node emission, ascending in supernode order ------------------------
  for (index_t s = 0; s < ns; ++s) {
    const std::size_t d = def_of[s];
    plan.scatter_ptr_[s] = plan.scatter_nodes_.size();
    if (d != kNoNode) {
      if (s == defs[d].first) {
        PlanNode b;
        b.kind = PlanNodeKind::kBatch;
        b.batch_first = defs[d].first;
        b.batch_last = defs[d].last;
        b.device_eligible = defs[d].leaves_only;
        b.priority = prio_scatter_base +
                     static_cast<std::size_t>(defs[d].last);
        b.queue = queue(defs[d].first);
        const std::size_t id = plan.nodes_.size();
        plan.nodes_.push_back(b);
        for (index_t m = defs[d].first; m <= defs[d].last; ++m) {
          plan.batch_of_[m] = id;
        }
      }
      continue;
    }
    const bool gpu = !on_gpu.empty() && on_gpu[s] != 0;
    PlanNode c;
    c.kind = PlanNodeKind::kCompute;
    c.sn = s;
    c.on_gpu = gpu;
    // GPU computes drain with the scatters (they feed the pipeline);
    // CPU computes queue behind every runnable scatter.
    c.priority = (gpu ? prio_scatter_base : prio_compute_base) +
                 static_cast<std::size_t>(s);
    c.queue = queue(s);
    plan.compute_of_[s] = plan.nodes_.size();
    plan.nodes_.push_back(c);
    if ((gpu && opts.fuse_gpu_scatter) || symb.sn_below(s) == 0) continue;
    for (const index_t target : symb.sn_update_targets(s)) {
      PlanNode n;
      n.kind = PlanNodeKind::kScatter;
      n.sn = s;
      n.target = target;
      n.priority = prio_scatter_base + static_cast<std::size_t>(s);
      n.queue = queue(s);
      const std::size_t id = plan.nodes_.size();
      plan.nodes_.push_back(n);
      plan.scatter_nodes_.push_back(id);
      plan.scatter_tgts_.push_back(target);
      add_edge(plan.compute_of_[s], id);
    }
  }
  plan.scatter_ptr_[ns] = plan.scatter_nodes_.size();

  // --- per-target contributor chains + readiness edges --------------------
  const std::vector<std::vector<index_t>> contrib =
      update_contributors(symb);
  for (index_t t = 0; t < ns; ++t) {
    const auto& cs = contrib[t];
    if (cs.empty()) continue;
    std::size_t prev = kNoNode;
    for (const index_t c : cs) {
      const std::size_t w = plan.scatter_node(c, t);
      if (w == prev) continue;  // consecutive in-batch contributors
      if (prev != kNoNode) add_edge(prev, w, true);
      prev = w;
    }
    // The chain makes the last contributor's scatter imply all earlier
    // ones: one edge is the whole ready count of t. A batched target's
    // contributors are its descendants — all inside its own batch — so
    // the tail IS the batch node and no edge is needed.
    const std::size_t entry = plan.compute_node(t);
    if (prev != entry) add_edge(prev, entry, true);
  }
  return plan;
}

}  // namespace spchol
