#include "spchol/support/worker_crew.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace spchol {

/// One fork-join call of run(): its calls are claimed one index at a
/// time by whoever sweeps the batch. `fn` lives on run()'s frame, so a
/// claim past the end never touches it — run() may return while a late
/// sweeper still holds the batch.
struct WorkerCrew::Batch : WorkerCrew::Source {
  Batch(std::size_t n, const std::function<void(std::size_t)>& f)
      : tasks(n), fn(&f) {}

  bool run_one(std::size_t) override {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= tasks) return false;
    std::exception_ptr err;
    try {
      (*fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mu);
    if (err && !error) error = err;
    if (++done == tasks) cv.notify_all();
    return true;
  }

  const std::size_t tasks;
  const std::function<void(std::size_t)>* fn;
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards done and error
  std::condition_variable cv;
  std::size_t done = 0;
  std::exception_ptr error;  // the first exception thrown by fn
};

WorkerCrew::WorkerCrew(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { loop(w); });
  }
}

WorkerCrew::~WorkerCrew() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    version_++;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerCrew::attach(std::shared_ptr<Source> source) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    sources_.push_back(std::move(source));
    version_++;
  }
  cv_.notify_all();
}

void WorkerCrew::detach(const Source* source) {
  std::lock_guard<std::mutex> lk(mu_);
  std::erase_if(sources_, [&](const auto& s) { return s.get() == source; });
}

void WorkerCrew::notify() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    version_++;
  }
  cv_.notify_all();
}

void WorkerCrew::loop(std::size_t worker) {
  std::vector<std::shared_ptr<Source>> snap;
  for (;;) {
    std::uint64_t seen;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (stop_) return;
      seen = version_;
      // Batches first: the thread that forked one is waiting on it.
      snap = batches_;
      snap.insert(snap.end(), sources_.begin(), sources_.end());
    }
    bool ran = false;
    for (const auto& s : snap) {
      if (s->run_one(worker)) ran = true;
    }
    snap.clear();  // drop source refs before sleeping
    if (ran) continue;
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return stop_ || version_ != seen; });
  }
}

void WorkerCrew::help(Source& own, const std::function<bool()>& done) {
  std::vector<std::shared_ptr<Source>> snap;
  for (;;) {
    // Own tasks first, without the crew lock: the run's work stays on
    // the calling thread where it can, and batches fill its waits.
    if (own.run_one(size())) continue;
    std::uint64_t seen;
    {
      std::lock_guard<std::mutex> lk(mu_);
      seen = version_;
      snap = batches_;
    }
    if (done()) return;
    // Own again: a task staged before the snapshot woke no one.
    bool ran = own.run_one(size());
    for (const auto& s : snap) {
      if (s->run_one(size())) ran = true;
    }
    snap.clear();
    if (ran) continue;
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return version_ != seen; });
  }
}

void WorkerCrew::run(std::size_t tasks,
                     const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  if (tasks == 1 || threads_.empty()) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  auto b = std::make_shared<Batch>(tasks, fn);
  {
    std::lock_guard<std::mutex> lk(mu_);
    batches_.push_back(b);
    version_++;
  }
  cv_.notify_all();
  while (b->run_one(size())) {
  }
  // Every call is claimed: retire the batch, then wait out the calls
  // still running on other threads.
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::erase(batches_, b);
  }
  std::unique_lock<std::mutex> lk(b->mu);
  b->cv.wait(lk, [&] { return b->done == tasks; });
  if (b->error) std::rethrow_exception(b->error);
}

void parallel_for(WorkerCrew& crew, index_t begin, index_t end,
                  std::size_t threads,
                  const std::function<void(index_t, index_t)>& body,
                  index_t grain) {
  const index_t n = end - begin;
  if (n <= 0) return;
  threads = std::max<std::size_t>(1, std::min(threads, crew.size() + 1));
  const index_t max_chunks =
      std::max<index_t>(1, n / std::max<index_t>(1, grain));
  const std::size_t chunks =
      std::min<std::size_t>(threads, static_cast<std::size_t>(max_chunks));
  if (chunks == 1) {
    body(begin, end);
    return;
  }
  const index_t step = (n + static_cast<index_t>(chunks) - 1) /
                       static_cast<index_t>(chunks);
  crew.run(chunks, [&](std::size_t c) {
    const index_t lo = begin + static_cast<index_t>(c) * step;
    const index_t hi = std::min<index_t>(lo + step, end);
    if (lo < hi) body(lo, hi);
  });
}

std::size_t resolve_worker_count(int requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace spchol
