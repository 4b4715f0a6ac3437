// DeviceArena: a long-lived simulated Device plus a keyed cache of slot
// pools, decoupling GPU resource lifetime from a single factorize() call.
//
// The per-call drivers build a gpu::SlotPool on the stack: every
// factorization pays the slot allocation (device buffers sized to its
// largest supernodes) and releases it on return. A service
// draining a stream of same-pattern requests repays that cost on every
// request — and two concurrent factorizations would each try to carve
// their full slot complement out of one 40 GB device with no reuse. The
// arena fixes both: it owns the shared Device, and it caches built pools
// under a caller-supplied 64-bit key so repeat requests reacquire the
// SAME slots.
//
// Keying. The key must fingerprint everything that shapes the pool —
// sparsity pattern, factorization method (RL slots and RLB slots are
// different types!), variant and the GPU split — because the cache
// returns the stored pool for a key hit without inspecting it.
// SolverService derives the key from its pattern fingerprint plus the
// plan-relevant FactorOptions, so distinct sessions only ever share a
// pool when their slot requirements are provably identical.
//
// Sharing semantics. The device executes numerics EAGERLY and keeps no
// clock, so sharing slots (or the device) across concurrent runs can
// change neither factor bits nor modeled stats (each run replays its
// own recorded costs).
// Two schedulers that each hold a resource token count sized to the pool
// jointly admit up to 2x size() acquirers; the excess simply blocks in
// SlotPool::acquire(). That cannot deadlock: if every blocked worker is
// in acquire(), no lease is held, so a slot is free — and each run's
// calling thread always participates in its own drain, so progress never
// depends on the crew.
//
// Memory pressure. Pools are built OUTSIDE the arena lock (slot
// construction runs real allocation work); if construction still throws
// DeviceOutOfMemory after SlotPool's own degrade-to-fewer-slots, the
// arena evicts idle cached pools (LRU, only entries nobody else holds)
// and retries, and only rethrows once nothing is left to evict.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "spchol/gpu/device.hpp"

namespace spchol::gpu {

class DeviceArena {
 public:
  explicit DeviceArena(DeviceConfig cfg = {}) : dev_(cfg) {}
  DeviceArena(const DeviceArena&) = delete;
  DeviceArena& operator=(const DeviceArena&) = delete;

  /// The shared device the arena-managed pools allocate from.
  Device& device() noexcept { return dev_; }
  const Device& device() const noexcept { return dev_; }

  /// Cache-usage counters (snapshot under the arena lock).
  struct Stats {
    std::size_t pools_cached = 0;  ///< pools currently held
    std::size_t pool_hits = 0;     ///< pool() calls served from cache
    std::size_t pool_misses = 0;   ///< pool() calls that built a pool
    std::size_t pool_evictions = 0;  ///< idle pools dropped under pressure
  };
  Stats stats() const;

  /// Drops every cached pool nobody else holds a reference to.
  void trim();

  /// Returns the pool cached under `key`, building it with `build()` (a
  /// callable returning std::shared_ptr<Pool>) on a miss. The caller
  /// guarantees the key fingerprints the pool's full shape, slot type
  /// included — a hit is returned without inspection. Thread-safe; two
  /// racing builders for one key keep the first inserted pool and discard
  /// the loser (its slots free their device memory on destruction).
  template <class Pool, class Build>
  std::shared_ptr<Pool> pool(std::uint64_t key, Build&& build) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (auto hit = find_locked(key)) {
        return std::static_pointer_cast<Pool>(std::move(hit));
      }
      misses_++;
    }
    for (;;) {
      std::shared_ptr<Pool> built;
      try {
        built = build();
      } catch (const DeviceOutOfMemory&) {
        std::lock_guard<std::mutex> lk(mu_);
        if (evict_idle_locked()) continue;  // freed memory: try again
        throw;
      }
      std::lock_guard<std::mutex> lk(mu_);
      if (auto hit = find_locked(key)) {
        // Lost an insert race: keep the cached pool, drop ours.
        return std::static_pointer_cast<Pool>(std::move(hit));
      }
      entries_.push_back(Entry{key, built, ++stamp_});
      return built;
    }
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<void> pool;
    std::uint64_t stamp = 0;  // bumped on every hit: LRU eviction order
  };

  /// Cache lookup; bumps the LRU stamp and hit counter. Caller holds mu_.
  std::shared_ptr<void> find_locked(std::uint64_t key);
  /// Evicts the least-recently-used entry nobody else references.
  /// Returns false when every cached pool is still in use (or the cache
  /// is empty). Caller holds mu_.
  bool evict_idle_locked();

  Device dev_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::uint64_t stamp_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace spchol::gpu
