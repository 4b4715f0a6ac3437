// WorkerCrew: the library's one set of worker threads, shared by many
// TaskScheduler runs at once and by the fork-join kernels their tasks
// issue.
//
// Work providers attach as Sources (TaskScheduler::run_on wraps a live
// run in one; run() wraps a fork-join batch in one), idle workers
// round-robin over the attached sources, and notify() wakes them when
// tasks become ready. Several sources may be attached at once, so
// concurrent factorization sessions on one SolverRuntime multiplex over
// a single crew, and a dense kernel forked by one task is picked up by
// whichever workers are idle. A per-call factorize, solve or ordering
// builds one crew of workers − 1 threads (none at one worker) and uses
// it for everything it runs; the calling thread always takes part, so
// the width of a crew is size() + 1.
//
// The sleep protocol is a version counter: a worker snapshots the
// version under the crew mutex BEFORE sweeping the sources, and sleeps
// only if the version is unchanged when it re-locks. Any notify() after
// the snapshot flips the wait predicate; any notify() before it is
// covered by the sweep the worker is about to do — so a wakeup can
// never be lost.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "spchol/support/common.hpp"

namespace spchol {

class WorkerCrew {
 public:
  /// One attached provider of work. Implementations must be callable
  /// from every crew worker concurrently, and must tolerate run_one()
  /// calls arriving after their work is done (returning false).
  class Source {
   public:
    virtual ~Source() = default;
    /// Runs at most one task; `worker` is the index of the thread that
    /// calls: a crew worker in [0, size()), or size() for a caller
    /// inside help(). Returns true if a task ran.
    virtual bool run_one(std::size_t worker) = 0;
  };

  /// Starts exactly `workers` persistent threads; 0 starts none, and
  /// every run and fork-join then executes on its calling thread.
  explicit WorkerCrew(std::size_t workers);
  ~WorkerCrew();
  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  std::size_t size() const noexcept { return threads_.size(); }

  /// Attaches a source and wakes the workers. The crew holds the
  /// shared_ptr until detach(); workers may additionally hold a
  /// reference through the end of their current sweep, so sources
  /// coordinate their own teardown (see TaskScheduler::run_on's
  /// close handshake) before the provider's state goes away.
  void attach(std::shared_ptr<Source> source);

  /// Detaches: the source receives no NEW sweeps. In-flight run_one()
  /// calls may still be executing — that is the source's problem.
  void detach(const Source* source);

  /// Wakes every idle worker and helper to rescan the attached sources.
  /// Schedulers call this when a task becomes ready or a run ends.
  void notify();

  /// Lets the calling thread, which is not a crew worker, work as worker
  /// size() until `done()` holds: it runs `own` first and, while `own`
  /// has nothing ready, the fork-join batches attached to the crew (never
  /// another caller's source, whose worker index it would share), and
  /// sleeps on the crew's wake-ups in between. `done` is evaluated after
  /// every version snapshot, so a state change followed by notify() is
  /// never missed.
  void help(Source& own, const std::function<bool()>& done);

  /// Fork-join: runs fn(i) for i in [0, tasks) and returns when every
  /// call has finished. The batch attaches as one more source: the
  /// calling thread runs calls itself, idle crew workers (and helpers)
  /// pick up the rest. The first exception thrown by fn is rethrown.
  /// Any thread may call, a crew worker inside a task included: it
  /// only waits for calls already running on other threads.
  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

 private:
  struct Batch;
  void loop(std::size_t worker);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<Source>> sources_;
  std::vector<std::shared_ptr<Source>> batches_;  // fork-join batches
  std::uint64_t version_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Splits [begin, end) into contiguous chunks and runs body(lo, hi) on
/// `crew`. `threads` limits the parallel width (1 = serial on the calling
/// thread; never more than crew.size() + 1); grain is the minimum chunk
/// size.
void parallel_for(WorkerCrew& crew, index_t begin, index_t end,
                  std::size_t threads,
                  const std::function<void(index_t, index_t)>& body,
                  index_t grain = 1);

/// Resolves a user-facing worker-count option (FactorOptions::
/// cpu_workers, SolveOptions::workers, OrderingOptions::workers,
/// RuntimeOptions::workers): values > 0 pass through, everything else
/// means hardware_concurrency() (minimum 1).
std::size_t resolve_worker_count(int requested);

}  // namespace spchol
