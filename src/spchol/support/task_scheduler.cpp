#include "spchol/support/task_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <queue>
#include <tuple>
#include <utility>

#include "spchol/support/timer.hpp"
#include "spchol/support/worker_crew.hpp"

namespace spchol {

namespace {

/// (priority, id) min-heap entry: lowest priority value first, id breaking
/// ties, via std::push_heap/pop_heap with std::greater.
using HeapEntry = std::pair<std::size_t, std::size_t>;

void heap_push(std::vector<HeapEntry>& h, HeapEntry e) {
  h.push_back(e);
  std::push_heap(h.begin(), h.end(), std::greater<>());
}

HeapEntry heap_pop(std::vector<HeapEntry>& h) {
  std::pop_heap(h.begin(), h.end(), std::greater<>());
  const HeapEntry e = h.back();
  h.pop_back();
  return e;
}

}  // namespace

/// All coordination state of one run, on run_on()'s stack. spawn() — a
/// member called from inside task bodies — reaches the queues and
/// counters through run_.
///
/// Spawned tasks live in geometrically-growing chunks behind a fixed
/// spine (chunk c holds kSpawnChunk << c tasks): pointers to constructed
/// tasks never move, so workers may index a spawned task while another
/// thread spawns the next one. Publication is safe without atomics on
/// the chunk table: a task id only becomes visible through a ready-queue
/// push, and the queue mutex orders the task's construction (and its
/// chunk's allocation) before any reader's pop.
struct TaskScheduler::RunState {
  static constexpr std::size_t kSpawnChunk = 1024;

  struct alignas(64) Partition {
    std::mutex mu;
    std::vector<HeapEntry> heap;
  };

  explicit RunState(std::size_t nparts) : parts(nparts) {}

  // --- spawned-task store ------------------------------------------------
  std::array<std::unique_ptr<Task[]>, 48> chunks;
  std::mutex spawn_mu;
  std::atomic<std::size_t> spawned{0};
  std::size_t base = 0;  // tasks_.size() at run start

  static std::size_t chunk_of(std::size_t i) {
    return std::bit_width(i / kSpawnChunk + 1) - 1;
  }
  static std::size_t chunk_base(std::size_t c) {
    return (kSpawnChunk << c) - kSpawnChunk;
  }

  // --- graph bookkeeping (seeded by prepare()) ---------------------------
  std::vector<std::atomic<std::size_t>> pending;  // unmet in-edges per task
  std::size_t num_edges = 0;                      // after dedup
  std::vector<std::size_t> runs_by;    // tasks executed, per worker
  std::vector<std::size_t> steals_by;  // off-partition pops, per worker

  // --- ready queues + crew coordination ----------------------------------
  WorkerCrew* crew = nullptr;  // nudged whenever the run's state moves
  std::vector<Partition> parts;
  std::vector<std::size_t> current;  // running task id per worker
  std::atomic<std::size_t> num_ready{0};
  std::atomic<std::size_t> live{0};
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::size_t> max_ready{0};
  std::atomic<std::size_t> resource_waits{0};
  std::atomic<std::size_t> chain_waits{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mu;  // guards `error`
  std::exception_ptr error;
  std::mutex res_mu;  // guards tokens + parked (GPU tasks only: cold path)
  std::vector<std::size_t> tokens;
  std::vector<std::vector<HeapEntry>> parked;
};

/// WorkerCrew adapter for one live run_on(). The hazard it manages: crew
/// workers hold a snapshot reference to the source through the end of
/// their current sweep, so a run_one() call can arrive after the graph
/// (whose RunState lives on run_on's stack) is complete. close() flips
/// `closed` — after which run_one never dereferences ts/rs again — and
/// waits out the steps that were already in flight, so run_on can only
/// return once no crew thread can touch the dying RunState.
struct TaskScheduler::CrewSource : WorkerCrew::Source {
  TaskScheduler* ts = nullptr;
  RunState* rs = nullptr;
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> closed{false};
  std::atomic<std::size_t> inflight{0};

  bool run_one(std::size_t worker) override {
    // Order matters: publish the in-flight claim BEFORE checking closed,
    // mirroring close()'s store-closed-then-wait — whichever side runs
    // second sees the other's write, so a step never outlives close().
    inflight.fetch_add(1);
    bool ran = false;
    if (!closed.load()) ran = ts->step(*rs, worker);
    if (inflight.fetch_sub(1) == 1 && closed.load()) {
      { std::lock_guard<std::mutex> lk(mu); }
      cv.notify_all();
    }
    return ran;
  }

  void close() {
    closed.store(true);
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return inflight.load() == 0; });
  }
};

void TaskScheduler::set_partitions(std::size_t parts) {
  partitions_ = std::max<std::size_t>(1, parts);
}

std::size_t TaskScheduler::add_resource(std::size_t tokens) {
  SPCHOL_CHECK(tokens >= 1, "a resource needs at least one token");
  resource_tokens_.push_back(tokens);
  return resource_tokens_.size() - 1;
}

std::size_t TaskScheduler::add_task(std::size_t priority, TaskFn fn,
                                    std::size_t resource,
                                    std::size_t partition) {
  SPCHOL_CHECK(resource == kNoResource || resource < resource_tokens_.size(),
               "task resource out of range");
  tasks_.push_back(Task{std::move(fn), priority, resource, partition,
                        kNoResource, 0.0, {}, {}});
  return tasks_.size() - 1;
}

void TaskScheduler::add_edge(std::size_t from, std::size_t to, bool chain) {
  SPCHOL_CHECK(from < tasks_.size() && to < tasks_.size() && from != to,
               "task edge out of range");
  tasks_[from].out.push_back(to);
  if (chain) tasks_[from].chain_out.push_back(to);
}

TaskScheduler::Task& TaskScheduler::task(std::size_t id) {
  RunState& rs = *run_;
  if (id < rs.base) return tasks_[id];
  const std::size_t i = id - rs.base;
  const std::size_t c = RunState::chunk_of(i);
  return rs.chunks[c][i - RunState::chunk_base(c)];
}

// Makes a runnable task visible: push to its partition queue, then nudge
// the crew, whose version protocol makes the wakeup impossible to lose.
void TaskScheduler::push_ready(RunState& rs, std::size_t id) {
  const Task& t = task(id);
  const std::size_t q = t.partition % rs.parts.size();
  {
    std::lock_guard<std::mutex> lk(rs.parts[q].mu);
    heap_push(rs.parts[q].heap, {t.priority, id});
  }
  const std::size_t nr = rs.num_ready.fetch_add(1) + 1;
  std::size_t seen = rs.max_ready.load(std::memory_order_relaxed);
  while (nr > seen && !rs.max_ready.compare_exchange_weak(
                          seen, nr, std::memory_order_relaxed)) {
  }
  rs.crew->notify();
}

// Moves a dependency-free task toward execution: straight into its ready
// queue, unless it needs a resource token none of which is free — then
// it parks until a token holder completes. Parked tasks stay `live`: a
// token holder is by definition live, so parking can never produce a
// false stall.
void TaskScheduler::stage(RunState& rs, std::size_t id) {
  rs.live.fetch_add(1);
  const std::size_t r = task(id).resource;
  if (r != kNoResource) {
    std::lock_guard<std::mutex> lk(rs.res_mu);
    if (rs.tokens[r] == 0) {
      heap_push(rs.parked[r], {task(id).priority, id});
      rs.resource_waits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    rs.tokens[r]--;
  }
  push_ready(rs, id);
}

std::size_t TaskScheduler::spawn(std::size_t worker, std::size_t priority,
                                 TaskFn fn, std::size_t partition) {
  RunState* rs = run_;
  SPCHOL_CHECK(rs != nullptr, "spawn() may only be called during run_on()");
  SPCHOL_CHECK(worker < rs->current.size(), "spawn() worker out of range");
  std::size_t id;
  {
    std::lock_guard<std::mutex> lk(rs->spawn_mu);
    const std::size_t i = rs->spawned.load(std::memory_order_relaxed);
    const std::size_t c = RunState::chunk_of(i);
    SPCHOL_CHECK(c < rs->chunks.size(), "spawned-task store exhausted");
    if (!rs->chunks[c]) {
      rs->chunks[c] =
          std::make_unique<Task[]>(RunState::kSpawnChunk << c);
    }
    Task& t = rs->chunks[c][i - RunState::chunk_base(c)];
    t.fn = std::move(fn);
    t.priority = priority;
    t.partition = partition;
    t.spawned_by = rs->current[worker];
    id = rs->base + i;
    rs->spawned.store(i + 1, std::memory_order_relaxed);
  }
  // Ordering matters for the stall detector: the spawner is live until
  // after this call returns, so remaining can never be observed > 0 with
  // live == 0 on account of a spawned-but-unstaged task.
  rs->remaining.fetch_add(1);
  stage(*rs, id);
  return id;
}

void TaskScheduler::prepare(RunState& rs) {
  SPCHOL_CHECK(run_ == nullptr, "a run is already in progress");
  SPCHOL_CHECK(!completed_,
               "the scheduler already ran a graph; call reset() first");
  completed_ = true;
  const std::size_t ntasks = tasks_.size();
  rs.base = ntasks;

  // Dedup out-edges and seed the pending counters.
  rs.num_edges = 0;
  for (auto& t : tasks_) {
    std::sort(t.out.begin(), t.out.end());
    t.out.erase(std::unique(t.out.begin(), t.out.end()), t.out.end());
    std::sort(t.chain_out.begin(), t.chain_out.end());
    t.chain_out.erase(
        std::unique(t.chain_out.begin(), t.chain_out.end()),
        t.chain_out.end());
    rs.num_edges += t.out.size();
  }
  rs.pending = std::vector<std::atomic<std::size_t>>(ntasks);
  for (const auto& t : tasks_) {
    for (const std::size_t succ : t.out) {
      rs.pending[succ].fetch_add(1, std::memory_order_relaxed);
    }
  }

  rs.remaining.store(ntasks);
  rs.tokens = resource_tokens_;
  rs.parked.assign(resource_tokens_.size(), {});
  rs.runs_by.assign(rs.current.size(), 0);
  rs.steals_by.assign(rs.current.size(), 0);
  run_ = &rs;

  for (std::size_t i = 0; i < ntasks; ++i) {
    if (rs.pending[i].load(std::memory_order_relaxed) == 0) stage(rs, i);
  }
}

bool TaskScheduler::step(RunState& rs, std::size_t worker) {
  if (rs.cancelled.load() || rs.remaining.load() == 0) return false;
  const std::size_t nparts = rs.parts.size();
  const std::size_t home = worker % nparts;
  // Hunt: home queue first, then sweep the others (work stealing).
  std::size_t id = kNoResource;
  bool stolen = false;
  for (std::size_t k = 0; k < nparts && id == kNoResource; ++k) {
    RunState::Partition& part = rs.parts[(home + k) % nparts];
    std::lock_guard<std::mutex> lk(part.mu);
    if (!part.heap.empty()) {
      id = heap_pop(part.heap).second;
      stolen = k > 0;
    }
  }
  if (id == kNoResource) return false;
  rs.num_ready.fetch_sub(1);
  rs.current[worker] = id;
  const WallTimer timer;
  try {
    task(id).fn(worker);
  } catch (...) {
    cancel(rs, std::current_exception());
    return true;
  }
  task(id).seconds = timer.seconds();
  rs.current[worker] = kNoResource;
  rs.runs_by[worker]++;
  if (stolen) rs.steals_by[worker]++;
  // Hand this task's token to the highest-priority parked peer, or
  // return it to the pool.
  const std::size_t r = task(id).resource;
  if (r != kNoResource) {
    std::size_t next = kNoResource;
    {
      std::lock_guard<std::mutex> lk(rs.res_mu);
      if (!rs.parked[r].empty()) {
        next = heap_pop(rs.parked[r]).second;
      } else {
        rs.tokens[r]++;
      }
    }
    if (next != kNoResource) push_ready(rs, next);
  }
  for (const std::size_t succ : task(id).out) {
    if (rs.pending[succ].fetch_sub(1) == 1) {
      // The edge just satisfied was the successor's last unmet
      // dependency; if it is a chain edge, the successor was held back
      // purely by same-target write serialization.
      const auto& co = task(id).chain_out;
      if (std::binary_search(co.begin(), co.end(), succ)) {
        rs.chain_waits.fetch_add(1, std::memory_order_relaxed);
      }
      stage(rs, succ);
    }
  }
  const std::size_t rem = rs.remaining.fetch_sub(1) - 1;
  const std::size_t lv = rs.live.fetch_sub(1) - 1;
  if (rem == 0 || lv == 0) rs.crew->notify();
  return true;
}

void TaskScheduler::cancel(RunState& rs, std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lk(rs.error_mu);
    if (!rs.cancelled.load()) {
      rs.cancelled.store(true);
      rs.error = std::move(error);
    }
  }
  rs.crew->notify();
}

bool TaskScheduler::settled(RunState& rs) {
  if (rs.cancelled.load() || rs.remaining.load() == 0) return true;
  // live is read before remaining: a finishing task decrements remaining
  // first, so live == 0 with tasks remaining is never a step in flight.
  if (rs.live.load() != 0 || rs.remaining.load() == 0) return false;
  // Nothing staged, nothing running, tasks remain: the graph can never
  // complete. Fail loudly instead of deadlocking the crew.
  cancel(rs, std::make_exception_ptr(
                 Error("task graph stalled with " +
                       std::to_string(rs.remaining.load()) +
                       " tasks remaining (dependency cycle?)")));
  return true;
}

SchedulerStats TaskScheduler::finish(RunState& rs, std::size_t workers) {
  // Fold the spawned tasks into tasks_ (ids align: spawned task i became
  // id base + i) so task_seconds() and modeled_makespan() see the whole
  // executed graph.
  const std::size_t spawned = rs.spawned.load();
  tasks_.reserve(rs.base + spawned);
  for (std::size_t i = 0; i < spawned; ++i) {
    const std::size_t c = RunState::chunk_of(i);
    tasks_.push_back(std::move(rs.chunks[c][i - RunState::chunk_base(c)]));
  }
  run_ = nullptr;
  durations_.resize(tasks_.size());
  for (std::size_t id = 0; id < tasks_.size(); ++id) {
    durations_[id] = tasks_[id].seconds;
  }

  SchedulerStats stats;
  stats.workers = workers;
  stats.partitions = rs.parts.size();
  for (std::size_t w = 0; w < rs.runs_by.size(); ++w) {
    stats.tasks_run += rs.runs_by[w];
    stats.steals += rs.steals_by[w];
    if (rs.runs_by[w] > 0) stats.threads_used++;
  }
  stats.tasks_spawned = spawned;
  stats.edges = rs.num_edges;
  stats.max_ready_depth = rs.max_ready.load();
  stats.resource_waits = rs.resource_waits.load();
  stats.chain_waits = rs.chain_waits.load();
  if (rs.error) std::rethrow_exception(rs.error);
  SPCHOL_CHECK(rs.remaining.load() == 0,
               "task graph did not complete (cycle?)");
  return stats;
}

SchedulerStats TaskScheduler::run_on(WorkerCrew& crew) {
  const std::size_t nworkers = crew.size() + 1;
  RunState rs(partitions_);
  rs.current.assign(nworkers, kNoResource);
  rs.crew = &crew;
  prepare(rs);

  auto src = std::make_shared<CrewSource>();
  src->ts = this;
  src->rs = &rs;
  crew.attach(src);  // crew workers take indices [0, size())
  // The caller drains as worker size(), helping with the kernels its
  // own tasks fork while it waits for ready tasks.
  crew.help(*src, [&] { return settled(rs); });
  src->close();  // no crew step may touch rs past this point
  crew.detach(src.get());
  return finish(rs, nworkers);
}

void TaskScheduler::reset() {
  SPCHOL_CHECK(run_ == nullptr, "reset() may not be called during a run");
  tasks_.clear();
  resource_tokens_.clear();
  durations_.clear();
  partitions_ = 1;
  completed_ = false;
}

TaskGraph TaskGraph::chain(std::size_t n) {
  TaskGraph g;
  g.priority.resize(n);
  g.succ.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.priority[i] = i;
    if (i + 1 < n) g.succ[i].push_back(i + 1);
  }
  return g;
}

double list_schedule(const TaskGraph& g, std::size_t lanes,
                     const std::function<LaneSpan(std::size_t, double)>& run) {
  lanes = std::max<std::size_t>(1, lanes);
  const std::size_t n = g.size();
  std::vector<std::size_t> pending(n, 0);
  for (const auto& out : g.succ) {
    for (const std::size_t succ : out) pending[succ]++;
  }
  // `ready` holds released-but-unstarted tasks; `events` the times at
  // which a running task frees its lane (kind 0) or completes and
  // releases its successors (kind 1).
  std::vector<HeapEntry> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (pending[i] == 0) heap_push(ready, {g.priority[i], i});
  }
  using Event = std::tuple<double, std::size_t, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::size_t free_lanes = lanes;
  double now = 0.0, makespan = 0.0;
  std::size_t started = 0;
  while (started < n || !events.empty()) {
    while (free_lanes > 0 && !ready.empty()) {
      const std::size_t id = heap_pop(ready).second;
      const LaneSpan span = run(id, now);
      events.emplace(span.lane_free, id, 0);
      events.emplace(span.done, id, 1);
      free_lanes--;
      started++;
      makespan = std::max(makespan, span.done);
    }
    SPCHOL_CHECK(!events.empty(), "list schedule stalled (dependency cycle?)");
    const auto [t, id, kind] = events.top();
    events.pop();
    now = t;
    if (kind == 0) {
      free_lanes++;
      continue;
    }
    for (const std::size_t succ : g.succ[id]) {
      if (--pending[succ] == 0) heap_push(ready, {g.priority[succ], succ});
    }
  }
  return makespan;
}

TaskGraph TaskScheduler::graph() const {
  TaskGraph g;
  g.priority.reserve(tasks_.size());
  g.succ.reserve(tasks_.size());
  for (const Task& t : tasks_) {
    g.priority.push_back(t.priority);
    g.succ.push_back(t.out);
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].spawned_by != kNoResource) {
      g.succ[tasks_[i].spawned_by].push_back(i);
    }
  }
  return g;
}

double TaskScheduler::modeled_makespan(std::size_t workers) const {
  SPCHOL_CHECK(durations_.size() == tasks_.size(),
               "modeled_makespan requires a completed run_on()");
  return list_schedule(graph(), workers, [&](std::size_t id, double t) {
    return LaneSpan{t + durations_[id], t + durations_[id]};
  });
}

}  // namespace spchol
