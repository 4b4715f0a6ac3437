// Dependency-driven task scheduler shared by the numeric factorization
// and solve drivers and the ordering pipeline's nested-dissection
// recursion.
//
// A TaskScheduler holds a DAG of tasks (build phase, single-threaded),
// then executes it on a crew of worker threads: every task carries an
// atomic-decrement ready count seeded from its in-edges, a finished task
// decrements its successors, and tasks whose count reaches zero enter a
// ready queue (lowest priority value first). The numeric drivers use
// the edges both for readiness (a supernode is ready when all its
// descendants' updates have been applied) and for write protection:
// chaining the scatter tasks of a shared ancestor's contributors in
// ascending supernode order makes the ancestor's storage single-writer
// AND reproduces the serial accumulation order bit for bit.
//
// Graphs whose shape is only discovered while running (the ND recursion:
// each bisection's sub-pieces exist only after the separator is cut) use
// spawn(): a running task may add immediately-runnable tasks mid-run.
// The spawner is recorded so graph() and modeled_makespan() keep the
// implicit spawner→child dependency.
//
// Ready queues are PARTITIONED: add_task optionally assigns a task to one
// of set_partitions() queues (the drivers partition by elimination-tree
// subtree), each with its own lock. A worker pops from its home queue
// first and steals from the others only when home is empty, so at high
// worker counts the crew stops convoying on a single global heap and a
// subtree's tasks tend to stay on the worker that ran their children
// (warm caches). Correctness never depends on the partitioning: it is a
// locality/contention hint, and stealing guarantees progress.
//
// A graph executes on a WorkerCrew (run_on): the crew's idle workers
// and the CALLING thread drain it together. The crew is the one set of
// threads a run has — a per-call factorization builds one of
// workers − 1 threads, a SolverRuntime keeps one for its whole life —
// and the dense kernels the tasks fork run on it too (see FactorContext),
// picked up by whichever crew workers are idle and by the caller while
// it waits for ready tasks, so a lone ready task near the etree root
// still uses every idle thread. Several schedulers may drain on one crew
// concurrently; task selection order varies with timing, but every
// execution-order freedom the graph permits is bitwise-neutral by
// construction (see above), so results are identical.
//
// A scheduler is single-shot per graph: after run_on() returns,
// reset() clears it back to an empty build phase so a long-lived
// per-session scheduler can be reused for the next factorization
// (partitions are re-bound by the next set_partitions call).
#pragma once

#include <array>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "spchol/support/common.hpp"

namespace spchol {

class WorkerCrew;

/// Execution counters surfaced through FactorStats / OrderingStats.
struct SchedulerStats {
  std::size_t tasks_run = 0;        ///< tasks executed
  std::size_t max_ready_depth = 0;  ///< peak total size of the ready queues
  std::size_t threads_used = 0;     ///< workers that ran at least one task
  std::size_t workers = 0;          ///< crew threads + the caller
  std::size_t resource_waits = 0;   ///< ready tasks parked for a token
  std::size_t partitions = 0;       ///< ready-queue partitions used
  std::size_t steals = 0;           ///< tasks run outside their partition
  std::size_t tasks_spawned = 0;    ///< tasks added dynamically via spawn()
  std::size_t edges = 0;            ///< dependency edges (after dedup)
  /// Tasks whose LAST unmet dependency was a chain edge (same-target
  /// serialization declared via add_edge(..., chain = true)): each one is
  /// a task that sat fully ready but for the write-order chain (the
  /// per-target scatter chains of the factorization plans).
  std::size_t chain_waits = 0;
};

/// A task DAG as a list schedule sees it: per-task priority (lower runs
/// first) and successor ids.
struct TaskGraph {
  std::vector<std::size_t> priority;
  std::vector<std::vector<std::size_t>> succ;

  std::size_t size() const noexcept { return priority.size(); }
  /// `n` tasks in one chain, task i before task i + 1.
  static TaskGraph chain(std::size_t n);
};

/// Greedy list schedule of `g` on `lanes` identical lanes, the one list
/// scheduler of the library. Whenever a lane is free, the released task
/// with the lowest (priority, id) starts on it at the current time t;
/// `run(id, t)` returns its finish time (>= t), which frees the lane and
/// releases the task's successors. Returns the latest finish. Tasks start
/// in non-decreasing time order, so `run` may keep state that only moves
/// forward in time (the factorization's cost replay does).
struct LaneSpan {
  double lane_free;  ///< when the task's lane may start another task
  double done;       ///< when the task completes (>= lane_free)
};
double list_schedule(const TaskGraph& g, std::size_t lanes,
                     const std::function<LaneSpan(std::size_t, double)>& run);

class TaskScheduler {
 public:
  /// Task body; receives the index of the worker executing it.
  using TaskFn = std::function<void(std::size_t worker)>;

  /// "No resource" marker for tasks without a token requirement.
  static constexpr std::size_t kNoResource = static_cast<std::size_t>(-1);

  /// Cap the drivers apply when sizing ready-queue partitions: beyond
  /// this, per-partition scratch and fan-out granularity stop paying off.
  static constexpr std::size_t kMaxPartitions = 16;

  /// Declares `parts` ready-queue partitions (>= 1; default 1, the old
  /// single-queue behaviour). Task partition ids are taken modulo this.
  void set_partitions(std::size_t parts);

  /// Declares a counting resource with `tokens` tokens (tokens >= 1). A
  /// task bound to the resource holds one token from the moment it enters
  /// the ready queue until it completes; ready tasks beyond the token
  /// count are parked (per-resource priority queue) until a holder
  /// finishes. The hybrid drivers use this to cap in-flight GPU supernode
  /// tasks at the stream/buffer slot-pool size without blocking workers.
  std::size_t add_resource(std::size_t tokens);

  /// Registers a task and returns its id. Lower `priority` runs first
  /// among simultaneously-ready tasks of the same partition (ties broken
  /// by id). `resource` optionally binds the task to a token of an
  /// add_resource() resource. `partition` selects the ready queue the
  /// task enters when it becomes runnable.
  std::size_t add_task(std::size_t priority, TaskFn fn,
                       std::size_t resource = kNoResource,
                       std::size_t partition = 0);

  /// Declares that `from` must complete before `to` may start.
  /// Duplicate edges are deduplicated at run_on(); the graph must be acyclic
  /// (the factorization drivers only ever add ascending-index edges).
  /// `chain` marks a same-target serialization edge (the drivers' write
  /// chains) rather than a data-flow dependency: when such an edge is the
  /// LAST one holding `to` back, the run counts a chain wait
  /// (SchedulerStats::chain_waits).
  void add_edge(std::size_t from, std::size_t to, bool chain = false);

  /// Adds an immediately-runnable task DURING run_on(), from inside a
  /// running task body; `worker` is the worker index that body received.
  /// The spawning task is recorded as the child's implicit predecessor:
  /// trivially satisfied live (the spawner is mid-execution), and
  /// kept as a dependency edge by graph(). Spawned tasks
  /// carry no explicit edges and no resource tokens — the dynamic use
  /// case (the ND recursion tree) needs neither. Thread-safe; returns
  /// the new task id. After run_on() the spawned tasks appear in tasks()
  /// order behind the pre-run graph, so task_seconds() covers them.
  std::size_t spawn(std::size_t worker, std::size_t priority, TaskFn fn,
                    std::size_t partition = 0);

  /// Tasks registered so far (including, after run_on(), spawned ones).
  std::size_t num_tasks() const noexcept { return tasks_.size(); }

  /// Executes the whole graph on `crew` and blocks until every task has
  /// finished: the scheduler attaches itself as a crew work source, the
  /// CALLING thread drains alongside the crew as worker crew.size() (so
  /// progress never depends on the crew being idle, and a crew of zero
  /// threads runs the graph on the caller alone), and the source is
  /// detached — with a handshake that waits out in-flight crew steps —
  /// before this returns. Several schedulers may run_on one crew at the
  /// same time. Rethrows the first task exception (remaining tasks are
  /// abandoned). One graph per scheduler: call reset() before building
  /// the next one. The worker count is crew.size() + 1.
  SchedulerStats run_on(WorkerCrew& crew);

  /// Clears the scheduler back to its post-construction state (no tasks,
  /// no resources, one partition) so a long-lived scheduler can be
  /// reused for the next graph. Must not be called during a run.
  void reset();

  /// Measured wall seconds of each executed task (indexed by task id;
  /// 0 for tasks abandoned after an error). Valid after run_on().
  const std::vector<double>& task_seconds() const noexcept {
    return durations_;
  }

  /// The executed graph: task priorities plus the deduplicated explicit
  /// edges and the implicit spawner→child edges. Valid after run_on().
  TaskGraph graph() const;

  /// list_schedule of graph() on `workers` lanes over the measured
  /// per-task durations: the modeled parallel time the symbolic/ordering
  /// scaling benches report. It depends only on the task durations and
  /// the dependency structure, not on how many REAL cores the measuring
  /// machine had. Resource tokens are ignored. Valid after run_on().
  double modeled_makespan(std::size_t workers) const;

 private:
  struct Task {
    TaskFn fn;
    std::size_t priority = 0;
    std::size_t resource = kNoResource;
    std::size_t partition = 0;
    std::size_t spawned_by = kNoResource;  // spawning task id, if any
    double seconds = 0.0;                  // measured by run_on()
    std::vector<std::size_t> out;          // successor task ids
    std::vector<std::size_t> chain_out;    // chain-edge successors (sorted)
  };
  struct RunState;    // live run coordination + spawned-task store
  struct CrewSource;  // WorkerCrew adapter with the close handshake

  Task& task(std::size_t id);
  void push_ready(RunState& rs, std::size_t id);
  void stage(RunState& rs, std::size_t id);
  /// Seeds the RunState (edge dedup, pending counts, root staging) and
  /// publishes it through run_. rs.current must already be sized to the
  /// worker count.
  void prepare(RunState& rs);
  /// Pops and executes at most one ready task as `worker`; returns true
  /// if a task ran (even one that failed — cancellation is recorded in
  /// the RunState, not signalled through the return value).
  bool step(RunState& rs, std::size_t worker);
  /// Cancels the run with `error` (the first one wins) and wakes the crew.
  void cancel(RunState& rs, std::exception_ptr error);
  /// True once the run completed or cancelled; cancels it with a stall
  /// error when tasks remain but none is staged or running.
  bool settled(RunState& rs);
  /// Folds spawned tasks and durations back into the scheduler, builds
  /// the stats, clears run_, and rethrows any task error.
  SchedulerStats finish(RunState& rs, std::size_t workers);

  std::vector<Task> tasks_;
  std::vector<std::size_t> resource_tokens_;
  std::vector<double> durations_;
  std::size_t partitions_ = 1;
  bool completed_ = false;   // a graph ran; reset() required before reuse
  RunState* run_ = nullptr;  // non-null only while a run is draining
};

}  // namespace spchol
