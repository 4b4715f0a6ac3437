// SolverRuntime: the long-lived execution substrate shared by every
// factorization a process runs — one persistent WorkerCrew, one shared
// simulated gpu::Device, the pool ledger (the slot-pool counters and the
// hook that frees idle pools under memory pressure), and admission
// control bounding how many factorizations are in flight at once.
//
// The per-call drivers construct all of this locally: factorize() builds
// a crew of `cpu_workers` − 1 threads, creates a Device, carves a slot
// pool out of it, runs, and tears everything down. That is the right
// shape for one-shot use and stays the default — but a server draining a
// request stream pays thread spawn/join and pool construction per
// request, and N uncoordinated concurrent calls each spawn their own full
// thread complement (N× oversubscription). SolverRuntime hoists the
// threads and the device out of the call: the crew is the only set of
// worker threads its sessions use — their task DAGs drain on it
// (TaskScheduler::run_on — the caller participates, so a session is
// never starved even when the crew is busy), and the dense kernel bands
// and device kernels those tasks fork run on it too, so a runtime of
// `workers` threads plus its callers never runs more threads than that.
// Sessions lease device slots from the pool their cached plan keeps on
// the shared device (SolverService), and pass through an admission gate
// that caps concurrent in-flight factorizations at
// RuntimeOptions::max_concurrent.
//
// Sharing never changes results: the crew only changes WHICH thread runs
// a task (the scheduler's deterministic scatter chains fix the order
// that matters), and the simulated device executes numerics eagerly, so
// factor bits are identical to the per-call path for every crew size and
// concurrency level. Modeled stats are unaffected too: each call replays
// its own DAG (core/replay.hpp), so concurrent sessions report exactly
// what an isolated run does.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "spchol/gpu/device.hpp"
#include "spchol/support/worker_crew.hpp"

namespace spchol {

struct RuntimeOptions {
  /// Persistent worker threads in the shared crew. 0 = hardware
  /// concurrency; negative values are rejected with InvalidArgument.
  /// The crew REPLACES every per-call thread: task DAGs, dense kernel
  /// bands and device kernels all run on it, so a session's effective
  /// parallelism is crew size + 1 (the calling thread), not its
  /// FactorOptions::cpu_workers.
  int workers = 0;
  /// Maximum factorizations in flight at once across every session of
  /// this runtime; further admit() calls block until one finishes.
  /// Values < 1 are rejected with InvalidArgument.
  int max_concurrent = 4;
  /// Configuration of the shared simulated device; every session runs
  /// its device work on it. Validated as in FactorOptions.
  gpu::DeviceConfig device{};
};

/// Throws InvalidArgument on invalid RuntimeOptions (negative workers,
/// max_concurrent < 1, an invalid device model). SolverRuntime's
/// constructor calls this.
void validate(const RuntimeOptions& opts);

/// Service-wide counters (snapshot; the pool ledger's counters merged in).
struct RuntimeStats {
  std::size_t factorizations = 0;   ///< admissions granted so far
  std::size_t admission_waits = 0;  ///< admissions that had to block
  std::size_t concurrent_peak = 0;  ///< max factorizations ever in flight
  std::size_t in_flight = 0;        ///< factorizations running right now
  std::size_t pools_cached = 0;     ///< slot pools cached plans hold now
  std::size_t pool_hits = 0;        ///< runs served a cached plan's pool
  std::size_t pool_misses = 0;      ///< cached-plan runs that built a pool
  std::size_t pool_evictions = 0;   ///< idle pools dropped under pressure
};

class SolverRuntime {
 public:
  explicit SolverRuntime(const RuntimeOptions& opts = {});
  SolverRuntime(const SolverRuntime&) = delete;
  SolverRuntime& operator=(const SolverRuntime&) = delete;

  /// RAII in-flight token: holding one means the runtime has admitted
  /// this factorization; its destructor releases the slot and wakes one
  /// blocked admit(). Move-only.
  class Admission {
   public:
    Admission(Admission&& other) noexcept : rt_(other.rt_) {
      other.rt_ = nullptr;
    }
    Admission& operator=(Admission&&) = delete;
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
    ~Admission();

   private:
    friend class SolverRuntime;
    explicit Admission(SolverRuntime* rt) : rt_(rt) {}
    SolverRuntime* rt_;
  };

  /// Blocks until an in-flight slot is free (at most max_concurrent
  /// factorizations run at once), then claims it.
  Admission admit();

  WorkerCrew& crew() noexcept { return crew_; }
  gpu::Device& device() noexcept { return device_; }
  /// The counters and reclaim hook of the slot pools cached plans keep
  /// on device().
  gpu::PoolLedger& pools() noexcept { return pools_; }
  /// Persistent crew threads (effective DAG parallelism is this + 1).
  std::size_t workers() const noexcept { return crew_.size(); }
  std::size_t max_concurrent() const noexcept { return max_concurrent_; }

  RuntimeStats stats() const;

 private:
  void release();

  WorkerCrew crew_;
  gpu::Device device_;
  gpu::PoolLedger pools_;
  std::size_t max_concurrent_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t in_flight_ = 0;
  std::size_t factorizations_ = 0;
  std::size_t admission_waits_ = 0;
  std::size_t concurrent_peak_ = 0;
};

}  // namespace spchol
