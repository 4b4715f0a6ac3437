// DeviceRegistry: a fixed set of N simulated devices behind one handle.
//
// Each registered device owns its own memory accounting and op counters.
// Sharding a factorization across devices means each shard's kernels and
// transfers are recorded against their assigned device's ordinal; the
// cost replay (core/replay.*) gives every device its own stream pairs,
// and the modeled makespan of the whole run is the max over the devices
// and the host lanes (they run concurrently).
//
// The registry is deliberately dumb: it neither routes nor balances.
// Device assignment is a planner decision (symbolic/exec_plan.* assigns
// top-level separator-tree subtrees to devices) and routing is an
// executor decision (core/rl.cpp, rlb.cpp, solve.cpp draw slots from
// per-device pools). All devices share one DeviceConfig — the homogeneous
// multi-GPU node of the paper's A100 class.
#pragma once

#include <cstddef>
#include <deque>

#include "spchol/gpu/device.hpp"

namespace spchol::gpu {

class DeviceRegistry {
 public:
  /// Constructs `count` devices, each with its own copy of `cfg`.
  /// `count` must be >= 1 (callers validate user-facing option values
  /// with InvalidArgument before reaching here).
  explicit DeviceRegistry(const DeviceConfig& cfg = {}, std::size_t count = 1) {
    SPCHOL_CHECK(count >= 1, "DeviceRegistry needs at least one device");
    for (std::size_t i = 0; i < count; ++i) devices_.emplace_back(cfg);
  }
  DeviceRegistry(const DeviceRegistry&) = delete;
  DeviceRegistry& operator=(const DeviceRegistry&) = delete;

  std::size_t size() const noexcept { return devices_.size(); }
  Device& device(std::size_t i) noexcept { return devices_[i]; }
  const Device& device(std::size_t i) const noexcept { return devices_[i]; }

 private:
  // Devices hold a mutex and buffers hold their device's address: elements
  // must never relocate. A deque grows without moving existing elements.
  std::deque<Device> devices_;
};

}  // namespace spchol::gpu
