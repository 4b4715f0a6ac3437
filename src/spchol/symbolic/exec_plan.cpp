#include "spchol/symbolic/exec_plan.hpp"

#include <algorithm>

#include "spchol/gpu/perf_model.hpp"

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

/// Walks every cross-shard update segment of a device assignment:
/// calls f(src_dev, dst_dev, entries) for each (supernode, target) pair
/// where both ends are GPU-resident, non-cooperative, and on different
/// devices — the exact set the executors charge as cross-device
/// separator assembly (PlanExecutor::cross_hops).
template <class F>
void for_each_cross_segment(const SymbolicFactor& symb,
                            std::span<const char> on_gpu,
                            std::span<const index_t> dev, F&& f) {
  const index_t ns = symb.num_supernodes();
  for (index_t s = 0; s < ns; ++s) {
    if (on_gpu.empty() || on_gpu[s] == 0 || dev[s] < 0) continue;
    const auto rows = symb.sn_rows(s);
    const index_t w = symb.sn_width(s);
    const index_t below = symb.sn_below(s);
    index_t b = 0;
    while (b < below) {
      const index_t t = symb.col_to_sn(rows[w + b]);
      index_t b1 = b;
      while (b1 < below && symb.col_to_sn(rows[w + b1]) == t) ++b1;
      if (on_gpu[t] != 0 && dev[t] >= 0 && dev[t] != dev[s]) {
        const offset_t seg = static_cast<offset_t>(b1 - b) *
                             (static_cast<offset_t>(below - b) +
                              static_cast<offset_t>(below - b1 + 1)) /
                             2;
        f(dev[s], dev[t], seg);
      }
      b = b1;
    }
  }
}

/// Shard → physical-ordinal placement over a link table: greedy
/// heaviest-edge-first seeding plus a local-swap refinement loop, both
/// deterministic (stable sorts, strict-improvement comparisons, ties
/// keep the identity mapping) so uniform tables place every shard on
/// its own ordinal and repeated runs agree. `bytes`/`count` are the
/// symmetrized num_devices×num_devices shard-pair traffic aggregates.
std::vector<index_t> place_shards(index_t num_devices,
                                  const std::vector<double>& bytes,
                                  const std::vector<double>& count,
                                  const gpu::LinkTable& links) {
  const auto n = static_cast<std::size_t>(num_devices);
  const auto at = [n](std::size_t a, std::size_t b) { return a * n + b; };
  // Seconds of shipping shard-pair (a,b)'s traffic over ordinal link
  // (p,q): the affine per-link transfer model.
  const auto cost = [&](std::size_t a, std::size_t b, index_t p,
                        index_t q) {
    const int src = static_cast<int>(p) % links.devices;
    const int dst = static_cast<int>(q) % links.devices;
    if (src == dst) return 0.0;
    return count[at(a, b)] * links.latency(src, dst) +
           bytes[at(a, b)] / (links.bandwidth(src, dst) * 1e9);
  };

  // Edges sorted heaviest-first by a link-independent proxy (bytes,
  // then count) — the pairs that matter most claim the best links.
  struct Edge {
    std::size_t a, b;
  };
  std::vector<Edge> edges;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (bytes[at(a, b)] > 0.0 || count[at(a, b)] > 0.0) {
        edges.push_back({a, b});
      }
    }
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [&](const Edge& x, const Edge& y) {
                     const double bx = bytes[at(x.a, x.b)];
                     const double by = bytes[at(y.a, y.b)];
                     if (bx != by) return bx > by;
                     return count[at(x.a, x.b)] > count[at(y.a, y.b)];
                   });

  std::vector<index_t> perm(n, -1);       // shard -> ordinal
  std::vector<char> taken(n, 0);          // ordinal claimed
  const auto place = [&](std::size_t shard, index_t ordinal) {
    perm[shard] = ordinal;
    taken[static_cast<std::size_t>(ordinal)] = 1;
  };
  // Cost of placing `shard` at `ordinal` against its already-placed
  // neighbours.
  const auto attach_cost = [&](std::size_t shard, index_t ordinal) {
    double c = 0.0;
    for (std::size_t o = 0; o < n; ++o) {
      if (o == shard || perm[o] < 0) continue;
      c += cost(shard, o, ordinal, perm[o]) +
           cost(o, shard, perm[o], ordinal);
    }
    return c;
  };
  for (const Edge& e : edges) {
    if (perm[e.a] < 0 && perm[e.b] < 0) {
      // Seed: drop the pair on the cheapest free ordinal pair,
      // identity-preferred on ties.
      index_t bp = -1, bq = -1;
      double best = 0.0;
      const auto consider = [&](index_t p, index_t q) {
        if (p == q || taken[static_cast<std::size_t>(p)] ||
            taken[static_cast<std::size_t>(q)]) {
          return;
        }
        const double c = cost(e.a, e.b, p, q) + cost(e.b, e.a, q, p);
        if (bp < 0 || c < best) {
          best = c;
          bp = p;
          bq = q;
        }
      };
      consider(static_cast<index_t>(e.a), static_cast<index_t>(e.b));
      for (index_t p = 0; p < num_devices; ++p) {
        for (index_t q = 0; q < num_devices; ++q) consider(p, q);
      }
      place(e.a, bp);
      place(e.b, bq);
    } else if (perm[e.a] < 0 || perm[e.b] < 0) {
      const std::size_t shard = perm[e.a] < 0 ? e.a : e.b;
      index_t bo = -1;
      double best = 0.0;
      const auto consider = [&](index_t o) {
        if (taken[static_cast<std::size_t>(o)]) return;
        const double c = attach_cost(shard, o);
        if (bo < 0 || c < best) {
          best = c;
          bo = o;
        }
      };
      consider(static_cast<index_t>(shard));
      for (index_t o = 0; o < num_devices; ++o) consider(o);
      place(shard, bo);
    }
  }
  // Traffic-free shards keep their own ordinal when free, else the
  // lowest free one.
  for (std::size_t a = 0; a < n; ++a) {
    if (perm[a] >= 0) continue;
    if (!taken[a]) {
      place(a, static_cast<index_t>(a));
      continue;
    }
    for (index_t o = 0; o < num_devices; ++o) {
      if (!taken[static_cast<std::size_t>(o)]) {
        place(a, o);
        break;
      }
    }
  }

  // Local-swap refinement: apply the best strictly-improving ordinal
  // swap until none remains (bounded — each pass lowers the objective).
  const auto objective = [&] {
    double c = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a != b) c += cost(a, b, perm[a], perm[b]);
      }
    }
    return c;
  };
  double cur = objective();
  for (std::size_t pass = 0; pass < n * n; ++pass) {
    std::size_t ba = n, bb = n;
    double best = cur;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        std::swap(perm[a], perm[b]);
        const double c = objective();
        std::swap(perm[a], perm[b]);
        if (c < best * (1.0 - 1e-12)) {
          best = c;
          ba = a;
          bb = b;
        }
      }
    }
    if (ba == n) break;
    std::swap(perm[ba], perm[bb]);
    cur = best;
  }
  return perm;
}

}  // namespace

double modeled_cross_traffic_seconds(const SymbolicFactor& symb,
                                     std::span<const char> on_gpu,
                                     std::span<const index_t> device_of,
                                     const gpu::PerfModel& model) {
  double total = 0.0;
  for_each_cross_segment(
      symb, on_gpu, device_of,
      [&](index_t src, index_t dst, offset_t entries) {
        const double bytes = static_cast<double>(entries) * 8.0;
        if (model.links.empty()) {
          total += model.d2h_seconds(bytes) + model.h2d_seconds(bytes);
        } else {
          total += model.p2p_seconds(static_cast<int>(src),
                                     static_cast<int>(dst), bytes);
        }
      });
  return total;
}

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

std::vector<index_t> assign_devices(const SymbolicFactor& symb,
                                    std::span<const char> on_gpu,
                                    index_t num_devices,
                                    bool coop_spine,
                                    const gpu::LinkTable* links) {
  const index_t ns = symb.num_supernodes();
  std::vector<index_t> dev(static_cast<std::size_t>(ns), 0);
  if (ns == 0 || num_devices <= 1) return dev;

  // GPU-work proxy per supernode: MODELED device seconds (nominal
  // PerfModel), not raw flops — a shard of many small supernodes pays a
  // per-kernel launch latency and runs far off the peak rate, so a
  // flop-balanced cut is badly seconds-imbalanced. The proxy sums the
  // pipeline's kernel curve (POTRF + TRSM + SYRK) plus the panel
  // up/down and update-download transfers; CPU-resident supernodes never
  // touch a device and weigh nothing, so the shards balance DEVICE time.
  const gpu::PerfModel pm;
  std::vector<double> weight(static_cast<std::size_t>(ns), 0.0);
  double total = 0.0;
  for (index_t s = 0; s < ns; ++s) {
    if (!on_gpu.empty() && on_gpu[s] != 0) {
      const double w = static_cast<double>(symb.sn_width(s));
      const double below = static_cast<double>(symb.sn_below(s));
      const double entries = static_cast<double>(symb.sn_entries(s));
      double sec = pm.gpu_kernel_seconds(w * w * w / 3.0) +
                   pm.h2d_seconds(entries * 8.0) +
                   pm.d2h_seconds(entries * 8.0);
      if (below > 0.0) {
        sec += pm.gpu_kernel_seconds(below * w * w) +
               pm.gpu_kernel_seconds(below * below * w) +
               pm.d2h_seconds(below * below * 8.0);
      }
      weight[s] = sec;
      total += sec;
    }
  }
  if (total <= 0.0) return dev;

  // Cooperative set: a supernode whose OWN modeled cost is a sizable
  // fraction of one device's fair share serializes whichever shard it
  // lands on — the top separators of a 3D mesh are 50%+ of the whole
  // factorization by themselves. When the executor supports cooperative
  // launches, such supernodes are marked -1 (block-distributed across
  // every device) and their weight leaves the partition problem: coop
  // work is spread evenly by construction, so only the remaining
  // subtree work needs balancing.
  std::vector<char> coop(static_cast<std::size_t>(ns), 0);
  if (coop_spine) {
    const double coop_cut =
        0.25 * total / static_cast<double>(num_devices);
    for (index_t s = 0; s < ns; ++s) {
      if (weight[s] > coop_cut) {
        coop[s] = 1;
        total -= weight[s];
        weight[s] = 0.0;
      }
    }
    if (total <= 0.0) {
      for (index_t s = 0; s < ns; ++s) {
        if (coop[s]) dev[s] = -1;
      }
      return dev;
    }
  }

  // Subtree weights and sizes, bottom-up over the postorder (a subtree
  // is the contiguous supernode range [s - size[s] + 1, s]).
  std::vector<double> subtree(weight);
  std::vector<index_t> size(static_cast<std::size_t>(ns), 1);
  std::vector<index_t> heavy_child(static_cast<std::size_t>(ns), -1);
  for (index_t s = 0; s < ns; ++s) {
    const index_t p = symb.sn_parent(s);
    if (p >= 0) {
      if (heavy_child[p] < 0 || subtree[s] > subtree[heavy_child[p]]) {
        heavy_child[p] = s;
      }
      subtree[p] += subtree[s];
      size[p] += size[s];
    }
  }
  const double target = total / static_cast<double>(num_devices);

  // Maximal-subtree cut (the subtree_partition idiom, weighted): a
  // supernode whose whole subtree fits under the per-device share AND
  // whose parent's does not is a cut root; it claims its contiguous
  // postorder range for the currently least-loaded device. Spine
  // (separator) supernodes — subtrees too heavy to place whole — ride
  // with their heaviest child's device, so independent heavy branches
  // land on different devices and each separator stays co-resident with
  // the shard that feeds it most; the contributions arriving from other
  // shards are the explicit cross-device separator assembly.
  std::vector<double> bin_load(static_cast<std::size_t>(num_devices), 0.0);
  const auto lightest = [&] {
    index_t best = 0;
    for (index_t b = 1; b < num_devices; ++b) {
      if (bin_load[b] < bin_load[best]) best = b;
    }
    return best;
  };
  for (index_t s = 0; s < ns; ++s) {
    if (subtree[s] > target) {
      // Spine vertex: children precede it in postorder with devices
      // already fixed — ride with the heaviest contributor so the
      // separator stays co-resident with the shard that feeds it most;
      // contributions arriving from other shards are the explicit
      // cross-device separator assembly.
      const index_t hc = heavy_child[s];
      dev[s] = hc >= 0 && dev[hc] >= 0 ? dev[hc] : lightest();
      bin_load[dev[s]] += weight[s];
      continue;
    }
    const index_t p = symb.sn_parent(s);
    if (p >= 0 && subtree[p] <= target) continue;  // an ancestor will cut
    const index_t bin = lightest();
    const index_t begin = s - size[s] + 1;
    for (index_t k = begin; k <= s; ++k) dev[k] = bin;
    bin_load[bin] += subtree[s];
  }
  // The cooperative override happens LAST: a coop supernode inside a
  // claimed cut range (a wide branch separator) still leaves its range
  // contiguous for its siblings, and a coop spine vertex is invisible to
  // the heavy-child walk above (its weight is already zero).
  for (index_t s = 0; s < ns; ++s) {
    if (coop[s]) dev[s] = -1;
  }

  // Phase two — topology-aware placement. The partition above produced
  // ABSTRACT shards (bin ids in partition order); with a link table the
  // shard-pair traffic aggregates pick which physical ordinal runs each
  // shard, so the heavy separator-assembly pairs ride the fast links.
  // Pure permutation: bits and plan edges cannot change.
  if (links != nullptr && !links->empty()) {
    const auto n = static_cast<std::size_t>(num_devices);
    std::vector<double> bytes(n * n, 0.0);
    std::vector<double> count(n * n, 0.0);
    for_each_cross_segment(
        symb, on_gpu, dev,
        [&](index_t src, index_t dst, offset_t entries) {
          // Symmetrized: the link table is symmetric, so only the pair's
          // combined volume matters to placement.
          const std::size_t a = static_cast<std::size_t>(std::min(src, dst));
          const std::size_t b = static_cast<std::size_t>(std::max(src, dst));
          bytes[a * n + b] += static_cast<double>(entries) * 8.0;
          count[a * n + b] += 1.0;
        });
    const std::vector<index_t> perm =
        place_shards(num_devices, bytes, count, *links);
    for (index_t s = 0; s < ns; ++s) {
      if (dev[s] >= 0) dev[s] = perm[static_cast<std::size_t>(dev[s])];
    }
  }
  return dev;
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
                                   const PlanOptions& opts,
                                   std::span<const index_t> device_of) {
  const index_t ns = symb.num_supernodes();
  SPCHOL_CHECK(on_gpu.empty() ||
                   on_gpu.size() == static_cast<std::size_t>(ns),
               "on_gpu span size mismatch");
  SPCHOL_CHECK(queue_of.empty() ||
                   queue_of.size() == static_cast<std::size_t>(ns),
               "queue_of span size mismatch");
  SPCHOL_CHECK(device_of.empty() ||
                   device_of.size() == static_cast<std::size_t>(ns),
               "device_of span size mismatch");

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
  auto device = [&](index_t s) {
    return device_of.empty() ? index_t{0} : device_of[s];
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
        b.device = device(defs[d].first);
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
    c.device = device(s);
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
      n.device = device(target);  // assembly lands on the target's device
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
