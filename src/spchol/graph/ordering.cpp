// Staged ordering pipeline. GraphStage (adjacency construction) runs
// serially; for nested dissection the DissectStage runs the separator
// recursion either inline over an explicit stack (serial path) or as a
// dynamically-spawned task DAG on the shared TaskScheduler: each piece
// is one task that either leaf-orders its slice or splits and spawns
// its sub-pieces (components, or the A/B sides of a bisection). Ready
// queues are partitioned by slice offset — a piece's subtree occupies a
// contiguous slice, so offset partitioning is the recursion-tree analog
// of the numeric drivers' etree subtree partitioning and keeps a
// subtree's tasks on the worker that split their parent. Both paths run
// the same nd_process_piece bodies and every slice position is fixed at
// split time, so the permutation is identical for every worker count.
#include "spchol/graph/ordering.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <utility>

#include "spchol/graph/min_degree.hpp"
#include "spchol/graph/rcm.hpp"
#include "spchol/support/task_scheduler.hpp"
#include "spchol/support/timer.hpp"
#include "spchol/support/worker_crew.hpp"

namespace spchol {

namespace {

/// Matrices below this order always take the serial path: task overhead
/// would dominate the traversals (same floor as the symbolic pipeline).
constexpr index_t kMinParallelOrder = 512;

/// Owns the workspace and output slice of one nested-dissection run and
/// executes the piece recursion serially or on the scheduler.
class OrderingPipeline {
 public:
  OrderingPipeline(const Graph& g, const OrderingOptions& opts,
                   std::size_t workers)
      : g_(g), opts_(opts), workers_(workers), ws_(g) {}

  Permutation run(OrderingStats& st) {
    const index_t n = g_.num_vertices();
    order_.assign(static_cast<std::size_t>(n), -1);
    if (workers_ > 1 && n >= kMinParallelOrder) {
      run_staged(nd_root_piece(ws_), st);
    } else {
      run_serial(nd_root_piece(ws_), st);
    }
    st.dissect_seconds = dissect_seconds_.load();
    st.leaf_seconds = leaf_seconds_.load();
    st.pieces = pieces_.load();
    st.leaves = leaves_.load();
    return Permutation(std::move(order_));
  }

 private:
  /// Books one processed piece's time under dissect or leaf.
  void book(bool was_leaf, double seconds) {
    (was_leaf ? leaf_seconds_ : dissect_seconds_)
        .fetch_add(seconds, std::memory_order_relaxed);
    pieces_.fetch_add(1, std::memory_order_relaxed);
    if (was_leaf) leaves_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Runs one piece body (a scheduler task's payload) and books it.
  void process(NdPiece&& p, const std::function<void(NdPiece&&)>& emit) {
    const WallTimer timer;
    bool was_leaf = false;
    nd_process_piece(ws_, std::move(p), opts_.nd,
                     {order_.data(), order_.size()}, emit, &was_leaf);
    book(was_leaf, timer.seconds());
  }

  void run_serial(NdPiece&& root, OrderingStats& st) {
    nd_run_serial(ws_, std::move(root), opts_.nd,
                  {order_.data(), order_.size()},
                  [this](bool was_leaf, double s) { book(was_leaf, s); });
    st.partitions = 1;
  }

  void run_staged(NdPiece&& root, OrderingStats& st) {
    const index_t n = g_.num_vertices();
    TaskScheduler sched;
    const std::size_t nparts =
        std::min({2 * workers_, TaskScheduler::kMaxPartitions,
                  static_cast<std::size_t>(n / 64) + 1});
    sched.set_partitions(nparts);
    // Bigger pieces first among simultaneously-ready tasks; the ready
    // queue of a piece follows its slice offset, so a recursion subtree
    // (a contiguous slice) stays in one queue like an etree subtree.
    const auto priority_of = [n](const NdPiece& p) {
      return static_cast<std::size_t>(n) -
             static_cast<std::size_t>(p.verts.size());
    };
    const auto partition_of = [n, nparts](const NdPiece& p) {
      return static_cast<std::size_t>(
          p.out_begin * static_cast<offset_t>(nparts) / n);
    };
    // Recursive task factory: a piece's task processes it and spawns one
    // task per emitted child. Lives on this frame, which outlives run().
    std::function<TaskScheduler::TaskFn(NdPiece&&)> make_body;
    auto* factory = &make_body;
    make_body = [this, &sched, factory, priority_of,
                 partition_of](NdPiece&& p) -> TaskScheduler::TaskFn {
      return [this, &sched, factory, priority_of, partition_of,
              p = std::move(p)](std::size_t worker) mutable {
        process(std::move(p), [&](NdPiece&& kid) {
          const std::size_t prio = priority_of(kid);
          const std::size_t part = partition_of(kid);
          sched.spawn(worker, prio, (*factory)(std::move(kid)), part);
        });
      };
    };
    sched.add_task(priority_of(root), make_body(std::move(root)),
                   TaskScheduler::kNoResource, 0);
    std::optional<WorkerCrew> own_crew;
    const SchedulerStats ss = sched.run_on(
        opts_.crew != nullptr ? *opts_.crew : own_crew.emplace(workers_ - 1));

    for (const double d : sched.task_seconds()) st.task_seconds += d;
    st.modeled_parallel_seconds = sched.modeled_makespan(workers_);
    st.tasks_run = ss.tasks_run;
    st.tasks_spawned = ss.tasks_spawned;
    st.partitions = ss.partitions;
    st.steals = ss.steals;
  }

  const Graph& g_;
  const OrderingOptions& opts_;
  std::size_t workers_;
  NdWorkspace ws_;
  std::vector<index_t> order_;
  std::atomic<double> dissect_seconds_{0.0};
  std::atomic<double> leaf_seconds_{0.0};
  std::atomic<std::size_t> pieces_{0};
  std::atomic<std::size_t> leaves_{0};
};

}  // namespace

const char* to_string(OrderingMethod m) {
  switch (m) {
    case OrderingMethod::kNatural:
      return "natural";
    case OrderingMethod::kRcm:
      return "rcm";
    case OrderingMethod::kNestedDissection:
      return "nested-dissection";
    case OrderingMethod::kMinimumDegree:
      return "minimum-degree";
  }
  return "?";
}

void validate(const OrderingOptions& opts) {
  validate(opts.nd);
  if (opts.workers < 0) {
    throw InvalidArgument("OrderingOptions::workers must be >= 0, got " +
                          std::to_string(opts.workers));
  }
}

Permutation compute_ordering(const CscMatrix& lower,
                             const OrderingOptions& opts,
                             OrderingStats* stats) {
  SPCHOL_CHECK(lower.square(), "ordering requires a square matrix");
  validate(opts);
  OrderingStats local;
  OrderingStats& st = stats != nullptr ? *stats : local;
  st = OrderingStats{};
  const WallTimer total;
  const std::size_t workers = resolve_worker_count(opts.workers);
  st.workers = workers;

  Permutation perm;
  const index_t n = lower.cols();
  if (opts.method == OrderingMethod::kNatural || n == 0) {
    perm = Permutation::identity(n);
  } else {
    WallTimer stage;
    const Graph g = Graph::from_sym_lower(lower);
    st.graph_seconds = stage.seconds();
    stage.reset();
    switch (opts.method) {
      case OrderingMethod::kRcm:
        perm = rcm_ordering(g);
        st.leaf_seconds = stage.seconds();
        st.pieces = st.leaves = 1;
        break;
      case OrderingMethod::kMinimumDegree:
        perm = min_degree_ordering(g);
        st.leaf_seconds = stage.seconds();
        st.pieces = st.leaves = 1;
        break;
      default: {
        OrderingPipeline pipeline(g, opts, workers);
        perm = pipeline.run(st);
        break;
      }
    }
  }
  if (st.tasks_run == 0) {
    // Serial path (or a method without a task DAG): the "schedule" is
    // the stage sum itself.
    st.task_seconds = st.graph_seconds + st.dissect_seconds + st.leaf_seconds;
    st.modeled_parallel_seconds = st.task_seconds;
    st.partitions = std::max<std::size_t>(st.partitions, 1);
  } else {
    // The GraphStage is a serial prefix of the scheduled recursion.
    st.task_seconds += st.graph_seconds;
    st.modeled_parallel_seconds += st.graph_seconds;
  }
  st.total_seconds = total.seconds();
  return perm;
}

Permutation compute_ordering(const CscMatrix& lower, OrderingMethod method,
                             const NdOptions& nd_opts) {
  OrderingOptions opts;
  opts.method = method;
  opts.nd = nd_opts;
  opts.workers = 1;
  return compute_ordering(lower, opts);
}

}  // namespace spchol
