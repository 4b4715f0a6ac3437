// A small fixed-size thread pool with a fork-join parallel_for.
//
// The paper parallelizes CPU assembly loops with OpenMP; spchol uses this
// pool instead so the library has no compiler-extension dependency and the
// worker count can be chosen per call (the performance model needs that to
// emulate the paper's best-of-{8,16,32,64,128} MKL thread sweep).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "spchol/support/common.hpp"

namespace spchol {

class ThreadPool {
 public:
  /// Creates `workers` threads. 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return threads_.size(); }

  /// Parallel width a fork-join region on this pool can reach: the pool
  /// workers plus the calling thread (which always participates in run()).
  std::size_t concurrency() const noexcept { return threads_.size() + 1; }

  /// Runs fn(i) for i in [0, tasks) across the pool and waits for all of
  /// them. The calling thread participates. Exceptions thrown by fn are
  /// rethrown (first one wins). Concurrent callers are supported: each
  /// call enqueues a batch on a FIFO, and idle workers drain batches in
  /// order, so nested kernels issued by several scheduler tasks at once
  /// share the pool instead of the newest batch starving the others.
  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

  /// Process-wide default pool (lazily constructed, hardware threads).
  static ThreadPool& global();

 private:
  struct Batch;
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Batch>> queue_;  // FIFO of live batches
  bool stop_ = false;
};

/// Splits [begin, end) into contiguous chunks and runs body(lo, hi) on the
/// pool. `threads` limits the parallel width (1 = serial on calling thread).
/// grain is the minimum chunk size.
void parallel_for(ThreadPool& pool, index_t begin, index_t end,
                  std::size_t threads,
                  const std::function<void(index_t, index_t)>& body,
                  index_t grain = 1);

/// Resolves a user-facing worker-count option shared by FactorOptions::
/// cpu_workers and OrderingOptions::workers: values > 0 pass through,
/// everything else means hardware_concurrency() (minimum 1).
std::size_t resolve_worker_count(int requested);

}  // namespace spchol
