#include "spchol/core/plan_executor.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "spchol/core/internal.hpp"

namespace spchol::detail {

namespace {

/// gpu_marked() per supernode: the on_gpu span both plan builders take.
std::vector<char> gpu_marks(const SymbolicFactor& symb, Execution exec,
                            offset_t threshold) {
  std::vector<char> on_gpu(static_cast<std::size_t>(symb.num_supernodes()));
  for (index_t s = 0; s < symb.num_supernodes(); ++s) {
    on_gpu[s] = gpu_marked(exec, threshold, symb.sn_entries(s)) ? 1 : 0;
  }
  return on_gpu;
}

}  // namespace

ExecutionPlan build_planned_graph(const SymbolicFactor& symb,
                                  const FactorOptions& opts) {
  const bool rl = opts.method == Method::kRL;
  PlanOptions popts;
  popts.fuse_gpu_scatter = !rl;
  return ExecutionPlan::build(
      symb,
      gpu_marks(symb, opts.exec,
                rl ? opts.gpu_threshold_rl : opts.gpu_threshold_rlb),
      popts);
}

SolvePlan build_planned_solve(const SymbolicFactor& symb,
                              const SolveOptions& opts) {
  return SolvePlan::build(symb,
                          gpu_marks(symb, opts.exec, opts.gpu_threshold));
}

PlanExecutor::PlanExecutor(FactorContext& ctx)
    : ctx_(&ctx),
      symb_(&ctx.symb),
      res_(ctx.res),
      workers_(ctx.workers),
      crew_(&ctx.crew),
      dev_(&ctx.dev) {
  const ExecutionResources* res = ctx.res;
  if (res != nullptr && res->sched != nullptr) {
    sched_ = res->sched;
    sched_->reset();
  }
  plan_ = (res != nullptr && res->planned != nullptr)
              ? res->planned
              : &own_plan_.emplace(build_planned_graph(ctx.symb, ctx.opts));
  ctx.batches_formed = plan_->batches_formed();
  ctx.supernodes_batched = plan_->supernodes_batched();

  // Device-resident factor storage: the factor panels of every GPU
  // supernode stay on the device for the whole factorization, so the
  // device must hold their SUM — the 40 GB bound a nlpkkt120-class factor
  // breaks. One held reservation; DeviceOutOfMemory propagates exactly
  // where the real allocation would fail.
  if (!ctx.opts.device_resident_factor) return;
  std::size_t entries = 0;
  for (index_t s = 0; s < ctx.symb.num_supernodes(); ++s) {
    if (ctx.on_gpu(s)) {
      entries += static_cast<std::size_t>(ctx.symb.sn_entries(s));
    }
  }
  if (entries > 0) resident_ = gpu::DeviceBuffer(ctx.dev, entries);
}

PlanExecutor::PlanExecutor(const SymbolicFactor& symb,
                           const SolveOptions& opts,
                           const ExecutionResources* res,
                           std::size_t workers)
    : symb_(&symb),
      res_(res),
      workers_(workers),
      crew_(res != nullptr && res->crew != nullptr
                ? res->crew
                : &own_crew_.emplace(workers - 1)) {
  solve_ = (res != nullptr && res->planned_solve != nullptr)
               ? res->planned_solve
               : &own_solve_.emplace(build_planned_solve(symb, opts));
  const auto nodes = solve_->nodes();
  if (std::any_of(nodes.begin(), nodes.end(), [](const SolveNode& nd) {
        return nd.kind == SolveNodeKind::kCompute && nd.on_gpu;
      })) {
    dev_ = res != nullptr && res->device != nullptr
               ? res->device
               : &own_dev_.emplace(opts.device);
  }
}

namespace {

/// Counts over supernode indices (a Fenwick tree).
class IndexCounts {
 public:
  explicit IndexCounts(index_t n) : t_(static_cast<std::size_t>(n) + 1, 0) {}
  void add(index_t i, int v) {
    for (auto k = static_cast<std::size_t>(i) + 1; k < t_.size();
         k += k & (~k + 1)) {
      t_[k] += v;
    }
  }
  /// The count over [lo, hi].
  int sum(index_t lo, index_t hi) const {
    return prefix(static_cast<std::size_t>(hi) + 1) -
           prefix(static_cast<std::size_t>(lo));
  }

 private:
  int prefix(std::size_t k) const {
    int r = 0;
    for (; k > 0; k -= k & (~k + 1)) r += t_[k];
    return r;
  }
  std::vector<int> t_;
};

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> concurrent_slot_caps(
    const SymbolicFactor& symb, std::span<const SlotNeed> needs,
    std::size_t slots) {
  // Supernodes are postordered, so s's subtree is [low[s], s]. A task
  // spans [low[first], last]; two tasks' spans nest exactly when one's
  // supernodes lie in the other's subtree, and are disjoint otherwise.
  const index_t ns = symb.num_supernodes();
  std::vector<index_t> low(static_cast<std::size_t>(ns));
  std::iota(low.begin(), low.end(), index_t{0});
  for (index_t s = 0; s < ns; ++s) {
    const index_t p = symb.sn_parent(s);
    if (p >= 0) low[p] = std::min(low[p], low[s]);
  }
  std::vector<std::size_t> order(needs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return needs[x].a + needs[x].b > needs[y].a + needs[y].b;
                   });

  // The most pairwise-concurrent tasks among those ranked so far are the
  // minimal ones, whose spans hold no other span (a forest order's
  // largest antichain). Their spans are disjoint: `open` maps each one's
  // left end to its right end, `minimal` counts them by right end.
  IndexCounts ranked(ns), minimal(ns);
  std::map<index_t, index_t> open;
  int num_minimal = 0;
  std::vector<std::pair<std::size_t, std::size_t>> caps(slots);
  for (const std::size_t i : order) {
    const SlotNeed& n = needs[i];
    const index_t lo = low[n.first];
    const index_t hi = n.last;
    // Minimal tasks that are not concurrent with n: inside its span, or
    // the one whose span holds it.
    auto outer = open.upper_bound(lo);
    const bool held = outer != open.begin() && (--outer)->second >= hi;
    const int beside = num_minimal - minimal.sum(lo, hi) - (held ? 1 : 0);
    const std::size_t top =
        std::min(static_cast<std::size_t>(beside), slots - 1);
    for (std::size_t k = 0; k <= top; ++k) {
      caps[k].first = std::max(caps[k].first, n.a);
      caps[k].second = std::max(caps[k].second, n.b);
    }
    if (ranked.sum(lo, hi) == 0) {  // n is minimal
      if (held) {
        minimal.add(outer->second, -1);
        open.erase(outer);
        --num_minimal;
      }
      minimal.add(hi, 1);
      open.emplace(lo, hi);
      ++num_minimal;
    }
    ranked.add(hi, 1);
  }
  return caps;
}

std::vector<std::pair<std::size_t, std::size_t>> PlanExecutor::ranked_slot_caps(
    std::span<const SlotNeed> needs, std::size_t slots) {
  std::vector<std::size_t> as, bs;
  for (const SlotNeed& n : needs) {
    as.push_back(n.a);
    bs.push_back(n.b);
  }
  std::sort(as.rbegin(), as.rend());
  std::sort(bs.rbegin(), bs.rend());
  std::vector<std::pair<std::size_t, std::size_t>> caps(slots);
  for (std::size_t k = 0; k < slots; ++k) caps[k] = {as[k], bs[k]};
  return caps;
}

PlanExecutor::Drained PlanExecutor::drain() {
  if (ctx_ != nullptr) ctx_->records.assign(sched_->num_tasks(), {});
  Drained d;
  d.stats = sched_->run_on(*crew_);
  d.serial_seconds = sched_->modeled_makespan(1);
  d.parallel_seconds = sched_->modeled_makespan(workers_);
  if (ctx_ != nullptr) {
    ctx_->sched_stats = d.stats;
    ctx_->modeled_task_serial_seconds = d.serial_seconds;
    ctx_->modeled_task_parallel_seconds = d.parallel_seconds;
    ctx_->graph = sched_->graph();
    ctx_->lanes = workers_;
  }
  return d;
}

}  // namespace spchol::detail
