// PlanExecutor: the one execution substrate behind the scheduled RL and
// RLB factorizations and the scheduled triangular solve. Not part of the
// public API.
//
// The three scheduled paths differ only in their node kernels
// (COMPUTE/SCATTER/BATCH for the factorizations, forward and backward
// solve steps for the solve). Everything else lives here:
//   * the on_gpu marks every factor plan is built from;
//   * scheduler and plan acquisition (injected by the service, or built
//     per call through the same builder);
//   * the device's slot pool sized from ranked buffer needs (RL tasks:
//     from the needs that can be in flight together), kept in the cached
//     plan's pool cell or built per call, with one scheduler resource
//     capping in-flight device tasks at the pool size;
//   * the device-resident reservation;
//   * plan-edge wiring and the drain.
// Nothing here touches numerics: the plan and the kernels fix every
// accumulation order, so results stay bitwise identical to the
// sequential drivers whatever this layer decides.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "spchol/core/factor.hpp"
#include "spchol/gpu/device.hpp"
#include "spchol/support/task_scheduler.hpp"
#include "spchol/support/worker_crew.hpp"
#include "spchol/symbolic/exec_plan.hpp"
#include "spchol/symbolic/solve_plan.hpp"

namespace spchol::detail {

struct AssemblyMap;
struct FactorContext;

/// Builds the scheduled-driver plan for `symb` under `opts`: a function
/// of the pattern, the on_gpu marks and the plan options alone.
/// SolverService caches one per (pattern, plan options) fingerprint; the
/// per-call path builds a transient one through the SAME function, so
/// both execute the same graph shape.
ExecutionPlan build_planned_graph(const SymbolicFactor& symb,
                                  const FactorOptions& opts);

/// Long-lived execution substrate injected by SolverRuntime/SolverService
/// into one factorization or solve call. Every field is optional and all
/// raw pointers are non-owning; a null field falls back to the per-call
/// construction it replaces, so a default ExecutionResources reproduces
/// the standalone path exactly. Injection affects scheduling and resource
/// reuse ONLY — never the bits, and never the modeled time, which each
/// call replays from its own DAG.
struct ExecutionResources {
  /// Persistent worker complement: the run's DAG, its dense kernel bands
  /// and its device kernels all run on it instead of on a per-call crew.
  WorkerCrew* crew = nullptr;
  /// Shared long-lived device.
  gpu::Device* device = nullptr;
  /// The cached plan's slot pool cell (on `device`): runs of the plan
  /// lease its pool instead of building one per call.
  gpu::PoolCell* pool = nullptr;
  /// Reusable per-session scheduler (reset() and rebuilt each run).
  /// Solves never borrow it: concurrent solves drain their own.
  TaskScheduler* sched = nullptr;
  /// Cached plan; must have been built for this call's (symb, opts) via
  /// build_planned_graph.
  const ExecutionPlan* planned = nullptr;
  /// Cached SOLVE plan; must have been built for this call's symb.
  const SolvePlan* planned_solve = nullptr;
  /// Cached A→L assembly map; must have been built for this call's symb.
  /// Used only when its pattern is the call's matrix pattern — any other
  /// matrix is assembled through a transient map.
  const AssemblyMap* assembly = nullptr;
  /// The shared owner of this call's `symb`: the factor keeps it instead
  /// of a private copy. Must point at the very object passed as `symb`.
  std::shared_ptr<const SymbolicFactor> symbolic;
};

/// One device task's buffer needs (entries). An RL task also names the
/// supernodes it factors, [first, last] (one COMPUTE, or a BATCH's
/// postorder run); RLB tasks leave first = last = -1.
struct SlotNeed {
  std::size_t a = 0;
  std::size_t b = 0;
  index_t first = -1;
  index_t last = -1;
};

/// Capacities (a, b) of `slots` pool slots for factor tasks, non-increasing
/// in the slot rank. Two factor tasks can only be in flight
/// together when neither's supernodes lie in the other's subtree (a
/// supernode is factored after its whole subtree). Ranking the tasks by
/// a + b descending, slot k >= 1 holds every task that comes after k
/// earlier tasks it can run beside, themselves pairwise concurrent; slot 0
/// holds every task. So any set of up to `slots` tasks that can be in
/// flight together fits one slot each (the i-th largest in slot i), while
/// a task that can never run beside a larger one, such as a parent panel
/// on the critical chain, sizes only slot 0.
std::vector<std::pair<std::size_t, std::size_t>> concurrent_slot_caps(
    const SymbolicFactor& symb, std::span<const SlotNeed> needs,
    std::size_t slots);

/// Slots of a scheduled run's device pool: at most this many device
/// tasks are in flight, each on its own buffers and stream pair. Fewer
/// are built when the run has fewer device tasks or the device cannot
/// hold them all.
inline constexpr std::size_t kDeviceSlots = 4;

/// Scheduler, device pool and drain of one scheduled run. A driver
/// constructs one, records its device tasks' buffer needs, builds its
/// pool, adds one task per plan node (add_nodes for factor plans, which
/// also wires the edges) and drains; its only own code is the node
/// kernels.
class PlanExecutor {
 public:
  /// Scheduled factorization on ctx's device. The plan is res->planned
  /// or a per-call build_planned_graph; the scheduler is res->sched
  /// (reset here) or a per-call one. Makes the device-resident
  /// reservation (FactorOptions::device_resident_factor, kGpuHybrid
  /// only) before any pool exists.
  explicit PlanExecutor(FactorContext& ctx);
  /// Scheduled solve, on the host alone. The plan is res->planned_solve
  /// or a per-call SolvePlan::build; the scheduler is always this call's
  /// own, so concurrent solves never share mutable state (the crew is
  /// still shared: res->crew, else a per-call one of `workers` − 1
  /// threads).
  PlanExecutor(const SymbolicFactor& symb, const ExecutionResources* res,
               std::size_t workers);
  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  const ExecutionPlan& plan() const noexcept { return *plan_; }
  const SolvePlan& solve_plan() const noexcept { return *solve_; }
  TaskScheduler& sched() noexcept { return *sched_; }
  /// Records one device task's buffer needs (entries).
  void need(std::size_t a, std::size_t b) { needs_.push_back({a, b}); }
  /// Same, for a factor task over supernodes [first, last]. When every
  /// task is recorded this way the pool is sized by concurrent_slot_caps
  /// and tasks lease the smallest free slot that fits: a slot then only
  /// ever holds tasks it was sized for, so its resident buffers do not
  /// depend on the order tasks happened to run in.
  void need(std::size_t a, std::size_t b, index_t first, index_t last) {
    needs_.push_back({a, b, first, last});
  }

  template <class Slot>
  using PoolPtr = std::shared_ptr<gpu::SlotPool<Slot>>;

  /// The device slot pool of one run and its scheduler resource.
  template <class Slot>
  struct Pool {
    PoolPtr<Slot> slot_pool;  ///< null when no device task runs
    std::size_t res = TaskScheduler::kNoResource;
    bool smallest = false;  ///< lease the smallest fitting slot
    std::size_t slots = 0;  ///< slots built for this run's needs
    /// Leases a slot holding at least (a, b) entries. The resource token
    /// caps in-flight tasks at the pool size, so the wait for a FITTING
    /// slot is rare and bounded (slot 0 fits everything).
    typename gpu::SlotPool<Slot>::Lease acquire(std::size_t a,
                                                std::size_t b) const {
      return slot_pool->acquire([&](const Slot& s) { return s.fits(a, b); },
                                smallest);
    }
  };

  /// The pool for the recorded needs, at most kDeviceSlots slots and no
  /// more than can ever be in flight together, slot k made by
  /// make(device, a_k, b_k) from the needs ranked descending (per
  /// dimension, or by concurrent_slot_caps for RL tasks): slot k only
  /// hosts the k-th largest concurrent task, so N slots cost far less
  /// than N copies of the largest — that is what lets several fit under
  /// a tight memory cap. The pool shrinks (down to one slot) when the
  /// device cannot fit every slot; when not even one fits, the
  /// DeviceOutOfMemory propagates. Taken from the injected pool cell
  /// (res->pool), or built per call.
  template <class Slot, class Make>
  Pool<Slot> pool(Make&& make) {
    Pool<Slot> p;
    if (needs_.empty()) return p;
    p.smallest = std::all_of(needs_.begin(), needs_.end(),
                             [](const SlotNeed& n) { return n.first >= 0; });
    const std::size_t count = std::min(kDeviceSlots, needs_.size());
    auto caps = p.smallest ? concurrent_slot_caps(*symb_, needs_, count)
                           : ranked_slot_caps(needs_, count);
    // A slot no task is sized for (no more tasks can ever be in flight
    // together) would never be leased: build none.
    std::erase(caps, std::pair<std::size_t, std::size_t>{});
    auto build = [&] {
      return std::make_shared<gpu::SlotPool<Slot>>(
          caps.size(), [&](std::size_t k) {
            return make(*dev_, caps[k].first, caps[k].second);
          });
    };
    p.slot_pool = res_ == nullptr || res_->pool == nullptr
                      ? build()
                      : res_->pool->get<Slot>(caps, build);
    p.slots = p.slot_pool->size();
    p.res = sched_->add_resource(p.slots);
    return p;
  }

  /// Adds factor plan node n's task (at its priority) running fn() under
  /// a FactorContext::NodeScope: its costs go to the record of its task
  /// id, and it counts toward the in-flight tasks the dense kernels' fork
  /// width follows. Defined in internal.hpp.
  template <class Fn>
  std::size_t add(const PlanNode& n, Fn fn,
                  std::size_t resource = TaskScheduler::kNoResource);

  /// Maps every factor plan node to the task add_node(i, node) returns,
  /// then adds the plan's edges between them (chain flags forwarded).
  template <class AddNode>
  void add_nodes(AddNode&& add_node) {
    const auto nodes = plan_->nodes();
    task_of_.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      task_of_[i] = add_node(i, nodes[i]);
    }
    wire(plan_->edges(), [&](std::size_t k) { return task_of_[k]; },
         plan_->edge_chain());
  }
  /// The task add_nodes() mapped plan node i to.
  std::size_t task_of(std::size_t i) const { return task_of_[i]; }

  /// Adds `edges` between the tasks `task(node)` maps their nodes to,
  /// forwarding the chain flags when given.
  template <class TaskOf>
  void wire(std::span<const std::pair<std::size_t, std::size_t>> edges,
            TaskOf&& task, std::span<const char> chain = {}) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      sched_->add_edge(task(edges[e].first), task(edges[e].second),
                       !chain.empty() && chain[e] != 0);
    }
  }

  struct Drained {
    SchedulerStats stats;
    double serial_seconds = 0.0;    ///< modeled_makespan(1)
    double parallel_seconds = 0.0;  ///< modeled_makespan(workers)
  };
  /// Runs the graph on the run's crew (the caller joins as one more
  /// worker) — execution order is bitwise-neutral by construction —
  /// then list-schedules the task-graph makespans from
  /// the measured task durations. A factorization additionally sizes one
  /// cost record per task before the run and hands its context the
  /// executed graph and `workers` CPU lanes for the cost replay.
  Drained drain();

 private:
  /// Slot k's capacities: the k-th largest need in each dimension.
  static std::vector<std::pair<std::size_t, std::size_t>> ranked_slot_caps(
      std::span<const SlotNeed> needs, std::size_t slots);

  FactorContext* ctx_ = nullptr;
  const SymbolicFactor* symb_ = nullptr;
  const ExecutionResources* res_ = nullptr;
  std::size_t workers_ = 1;
  std::optional<WorkerCrew> own_crew_;
  WorkerCrew* crew_ = nullptr;
  std::optional<ExecutionPlan> own_plan_;
  const ExecutionPlan* plan_ = nullptr;
  std::optional<SolvePlan> own_solve_;
  const SolvePlan* solve_ = nullptr;
  gpu::Device* dev_ = nullptr;
  TaskScheduler own_sched_;
  TaskScheduler* sched_ = &own_sched_;
  std::vector<SlotNeed> needs_;
  gpu::DeviceBuffer resident_;
  std::vector<std::size_t> task_of_;
};

}  // namespace spchol::detail
