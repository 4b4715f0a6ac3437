// Simulated CUDA-like device runtime.
//
// The device executes numerics for real (kernels run on host threads, and
// "device memory" is host memory behind an accounting layer) and keeps
// no clock. Every device op instead appends one modeled cost entry (an
// Op) to the record of the plan node issuing it: stream role, duration,
// bytes, and at most one dependency on an earlier op of the same node.
// After the run, core/replay.* list-schedules the executed task DAG over
// those records and produces every modeled number — so modeled time is a
// function of the plan and the options alone, never of how host threads
// interleaved. The entries carry exactly what the paper's offloading
// algorithms depend on:
//   * asynchronous D2H of the factored supernode overlapping the update
//     kernel (§III: a copy-role op waits only for the compute op it
//     names),
//   * per-transfer latency vs bandwidth trade-offs (RLB v1 vs v2, §IV.B),
//   * the hard 40 GB memory capacity that fails RL on nlpkkt120 (Table I),
//     which the memory accounting below enforces for real.
//
// Concurrency. The scheduled hybrid drivers issue operations from several
// worker threads at once; the memory accounting is guarded by the device
// mutex, the op counters are atomic, and each node's record is written
// only by the thread running that node.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "spchol/gpu/perf_model.hpp"
#include "spchol/support/common.hpp"

namespace spchol {
class WorkerCrew;
}

namespace spchol::gpu {

/// Thrown when a device allocation exceeds the configured capacity —
/// the condition that prevents RL from factorizing nlpkkt120 in the paper.
class DeviceOutOfMemory : public Error {
 public:
  DeviceOutOfMemory(std::size_t requested, std::size_t in_use,
                    std::size_t capacity)
      : Error("device out of memory: requested " + std::to_string(requested) +
              " B but only " + std::to_string(capacity - in_use) +
              " B are available (" + std::to_string(in_use) +
              " B in use of " + std::to_string(capacity) + " B capacity)"),
        requested_(requested),
        in_use_(in_use),
        capacity_(capacity) {}
  std::size_t requested() const noexcept { return requested_; }
  std::size_t in_use() const noexcept { return in_use_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Bytes that were free at the failing allocation.
  std::size_t available() const noexcept { return capacity_ - in_use_; }

 private:
  std::size_t requested_, in_use_, capacity_;
};

struct DeviceConfig {
  /// Device memory capacity in bytes (A100: 40 GB).
  std::size_t memory_bytes = 40ull << 30;
  PerfModel model{};
};

/// Throws InvalidArgument unless every rate and peak of cfg.model is
/// positive and finite and every latency, overhead and per-entry cost is
/// non-negative and finite. `what` names the option being validated in
/// the message.
void validate(const DeviceConfig& cfg, const char* what);

/// The modeled stream a device op runs on. The replay gives every node
/// that touches the device the stream pair (a compute and a copy stream)
/// of one of the slots its executor built; ops on one stream run in
/// issue order. The role orders ops, it does not add hardware: kernels
/// of every stream share the device's one compute engine, so a pair
/// overlaps copies with kernels, never two kernels.
enum class Role : std::uint8_t { kCompute, kCopy };

/// What one recorded cost entry models (core/replay.hpp schedules them).
enum class OpKind : std::uint8_t {
  kCpuBlas,   ///< host BLAS seconds
  kAssembly,  ///< host scatter-assembly seconds
  kWait,      ///< the host blocks until op `after` completes
  kKernel,    ///< device kernel on stream `role`
  kH2D,       ///< host→device transfer on stream `role`
  kD2H,       ///< device→host transfer on stream `role`
};

/// One modeled cost entry of an executed node.
struct Op {
  OpKind kind = OpKind::kCpuBlas;
  Role role = Role::kCompute;
  int after = -1;        ///< earlier op of the same node this one waits for
  double issue = 0.0;    ///< host seconds spent issuing a device op
  double seconds = 0.0;  ///< modeled duration
  std::size_t bytes = 0;
};

/// The costs one executed node recorded, in issue order. Only the thread
/// running the node writes it, so recording takes no lock.
using OpRecord = std::vector<Op>;

/// Where a device op is issued: the `role` stream, recorded into `rec`.
/// A null `rec` records no time — the op only bumps the device counters
/// (a kernel driven directly, outside any plan node, as the device's
/// unit tests do).
struct Stream {
  OpRecord* rec = nullptr;
  Role role = Role::kCompute;
  int after = -1;  ///< op of `rec` the next op issued here waits for

  /// This handle with its op waiting for op `op` (cudaStreamWaitEvent).
  Stream waiting_for(int op) const {
    Stream s = *this;
    s.after = op;
    return s;
  }
  /// Index of the latest op recorded on this handle's stream, or -1 —
  /// the event a cross-stream wait names.
  int last() const;
};

/// Device op counters (atomic; a snapshot via Device::stats()).
struct DeviceStats {
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
  std::size_t num_h2d = 0;
  std::size_t num_d2h = 0;
  std::size_t num_kernels = 0;
};

class Device {
 public:
  explicit Device(DeviceConfig cfg = {}) : cfg_(cfg) {}

  const DeviceConfig& config() const noexcept { return cfg_; }
  const PerfModel& model() const noexcept { return cfg_.model; }

  // --- memory accounting -------------------------------------------------
  std::size_t mem_used() const noexcept;
  std::size_t mem_peak() const noexcept;
  std::size_t mem_capacity() const noexcept { return cfg_.memory_bytes; }

  /// Snapshot of the op counters.
  DeviceStats stats() const;

  /// Counts one op of `kind` moving `bytes` and, when s.rec is set,
  /// appends its modeled cost to the record; returns the op's index in
  /// s.rec (-1 when unrecorded).
  int record(Stream s, OpKind kind, double seconds, std::size_t bytes = 0);

  /// The crew the device's kernels fork on (non-owning; null runs them
  /// on the issuing thread alone). Set once by the device's owner — a
  /// SolverRuntime, or the per-call run that built the device — before
  /// any kernel is issued.
  void set_crew(WorkerCrew* crew) noexcept { crew_ = crew; }
  WorkerCrew* crew() const noexcept { return crew_; }

 private:
  friend class DeviceBuffer;
  void mem_acquire(std::size_t bytes);
  void mem_release(std::size_t bytes);

  DeviceConfig cfg_;
  WorkerCrew* crew_ = nullptr;

  mutable std::mutex mu_;  // guards the memory accounting
  std::size_t mem_used_ = 0;
  std::size_t mem_peak_ = 0;
  std::atomic<std::size_t> h2d_bytes_{0}, d2h_bytes_{0};
  std::atomic<std::size_t> num_h2d_{0}, num_d2h_{0}, num_kernels_{0};
};

/// A device-memory allocation (host-backed doubles). RAII: releases its
/// accounting on destruction. Move-only.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  /// Throws DeviceOutOfMemory when the accounted capacity is exceeded.
  DeviceBuffer(Device& dev, std::size_t count);
  ~DeviceBuffer();
  DeviceBuffer(DeviceBuffer&& o) noexcept;
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  double* data() noexcept { return data_; }
  const double* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return count_; }
  bool valid() const noexcept { return data_ != nullptr; }
  void release();

 private:
  Device* dev_ = nullptr;
  double* data_ = nullptr;
  std::size_t count_ = 0;
};

/// Bounded pool of per-in-flight-supernode device buffers (packaged by
/// the numeric drivers as `Slot`).
///
/// Construction allocates up to `want` slots and degrades gracefully: when
/// the device cannot fit another slot the pool simply stops growing, so a
/// memory-capped device falls back toward the single-pipeline behaviour
/// instead of failing. Only when not even ONE slot fits does the
/// DeviceOutOfMemory escape (carrying the available-byte report) — a
/// zero-slot pool would hang every acquire() forever.
///
/// Slots need not be identical: the drivers RANK them (slot 0 sized for
/// the largest GPU supernode, slot k for the k-th largest), which is what
/// lets several slots fit under a device memory cap that could never hold
/// N copies of the largest. acquire() takes a fit predicate; slot 0 must
/// satisfy every task's predicate by construction.
template <class Slot>
class SlotPool {
 public:
  /// `make(k)` returns a std::unique_ptr<Slot> for rank k (capacities
  /// non-increasing in k); it may throw DeviceOutOfMemory to stop the
  /// pool's growth.
  template <class Make>
  SlotPool(std::size_t want, Make&& make) {
    for (std::size_t k = 0; k < want; ++k) {
      try {
        slots_.push_back(make(k));
      } catch (const DeviceOutOfMemory&) {
        if (slots_.empty()) throw;
        break;
      }
    }
    free_.assign(slots_.size(), 1);
  }

  std::size_t size() const noexcept { return slots_.size(); }

  /// RAII lease on one slot; returns it to the pool on destruction
  /// (including when the task body throws).
  class Lease {
   public:
    Lease(SlotPool& pool, std::size_t idx)
        : pool_(&pool), slot_(pool.slots_[idx].get()), idx_(idx) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->release(idx_);
    }
    Lease(Lease&& o) noexcept
        : pool_(o.pool_), slot_(o.slot_), idx_(o.idx_) {
      o.pool_ = nullptr;
      o.slot_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Slot& operator*() const noexcept { return *slot_; }
    Slot* operator->() const noexcept { return slot_; }

   private:
    SlotPool* pool_;
    Slot* slot_;
    std::size_t idx_;
  };

  /// Blocks until a free slot satisfies `fits` and leases the first such
  /// slot, or with `smallest` the last one (the smallest, as capacities
  /// are non-increasing in rank). Slot 0 always fits, so a waiter can
  /// never starve: every holder runs to completion. The schedulers bound
  /// in-flight acquirers to size() via a resource token, so waits are
  /// rare. Which slot a task gets never shows in modeled time: the replay
  /// assigns stream pairs.
  template <class Fits>
  Lease acquire(Fits&& fits, bool smallest = false) {
    std::unique_lock<std::mutex> lk(mu_);
    SPCHOL_CHECK(!slots_.empty(), "acquire on an empty slot pool");
    const std::size_t n = slots_.size();
    std::size_t idx = 0;
    cv_.wait(lk, [&] {
      for (std::size_t k = 0; k < n; ++k) {
        idx = smallest ? n - 1 - k : k;
        if (free_[idx] && fits(*slots_[idx])) return true;
      }
      return false;
    });
    free_[idx] = 0;
    return Lease(*this, idx);
  }
  Lease acquire() {
    return acquire([](const Slot&) { return true; });
  }

 private:
  void release(std::size_t idx) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      free_[idx] = 1;
    }
    // Predicates differ between waiters; wake them all.
    cv_.notify_all();
  }

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<char> free_;
  std::mutex mu_;
  std::condition_variable cv_;
};

/// The pool counters one SolverRuntime reports and the hook that frees
/// idle pools under memory pressure, shared by the PoolCells of its
/// service.
struct PoolLedger {
  std::atomic<std::size_t> cached{0};     ///< cells holding a pool
  std::atomic<std::size_t> hits{0};       ///< get() calls served the held pool
  std::atomic<std::size_t> misses{0};     ///< get() calls that built a pool
  std::atomic<std::size_t> evictions{0};  ///< idle pools dropped by reclaim
  /// Drops the idle pools of every cell (PoolCell::drop_idle) and returns
  /// whether it dropped any. Set before any cell is consulted; empty when
  /// nothing can be reclaimed.
  std::function<bool()> reclaim;
};

/// The slot pool of one cached plan, kept with the slot capacities (caps)
/// it was built for, so repeated runs of the plan lease the SAME device
/// buffers instead of allocating their own. The pool dies with the cell.
///
/// Reuse. A run gets the held pool when its caps cover the run's caps
/// slot by slot. Otherwise it builds a pool for its own caps, outside the
/// cell lock, and that pool replaces the held one; a run still leasing
/// the old pool keeps it alive until it ends. When the build throws
/// DeviceOutOfMemory (not even one slot fits), the ledger's reclaim frees
/// every idle pool and the build is retried once, with no cell lock held.
///
/// Sharing. The device executes numerics eagerly and keeps no clock, so
/// runs sharing a pool change neither factor bits nor modeled stats (each
/// run replays its own recorded costs). Two schedulers that each hold a
/// resource token count sized to the pool jointly admit up to 2x size()
/// acquirers; the excess blocks in SlotPool::acquire(). That cannot
/// deadlock: if every blocked worker is in acquire(), no lease is held,
/// so a slot is free — and each run's calling thread takes part in its
/// own drain, so progress never depends on the crew.
class PoolCell {
 public:
  /// Slot k's capacities (a, b), non-increasing in k.
  using Caps = std::vector<std::pair<std::size_t, std::size_t>>;

  explicit PoolCell(PoolLedger& ledger) : ledger_(&ledger) {}
  PoolCell(const PoolCell&) = delete;
  PoolCell& operator=(const PoolCell&) = delete;
  ~PoolCell() {
    if (pool_ != nullptr) ledger_->cached--;
  }

  /// The held pool when it covers `caps`, else the pool `build()` returns
  /// (a std::shared_ptr<SlotPool<Slot>> built for `caps`), which the cell
  /// then holds. Every pool of one cell has the same Slot type.
  template <class Slot, class Build>
  std::shared_ptr<SlotPool<Slot>> get(const Caps& caps, Build&& build) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (covers_locked(caps)) {
        ledger_->hits++;
        return std::static_pointer_cast<SlotPool<Slot>>(pool_);
      }
    }
    ledger_->misses++;
    std::shared_ptr<SlotPool<Slot>> built;
    try {
      built = build();
    } catch (const DeviceOutOfMemory&) {
      if (!ledger_->reclaim || !ledger_->reclaim()) throw;
      built = build();
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (covers_locked(caps)) {
      // A racing run built a covering pool first: keep it, drop ours.
      return std::static_pointer_cast<SlotPool<Slot>>(pool_);
    }
    if (pool_ == nullptr) ledger_->cached++;
    pool_ = built;
    caps_ = caps;
    return built;
  }

  /// Drops the held pool when no run holds it; returns whether it did.
  bool drop_idle();

 private:
  /// Whether the held pool's caps cover `caps` slot by slot.
  bool covers_locked(const Caps& caps) const;

  PoolLedger* ledger_;
  std::mutex mu_;
  std::shared_ptr<void> pool_;
  Caps caps_;
};

// --- transfers (counts in doubles) ----------------------------------------

/// Records that the host blocks until op `op` of s.rec completes (a
/// no-op on an unrecorded handle).
void host_wait(Stream s, int op);

/// Host→device copy of `count` doubles (the data moves eagerly). A
/// synchronous copy also records a host wait for its completion; an
/// asynchronous one only occupies its stream. Returns the op index.
int copy_h2d(Device& dev, Stream s, DeviceBuffer& dst, std::size_t dst_off,
             const double* src, std::size_t count, bool async);
int copy_d2h(Device& dev, Stream s, double* dst, const DeviceBuffer& src,
             std::size_t src_off, std::size_t count, bool async);

}  // namespace spchol::gpu
