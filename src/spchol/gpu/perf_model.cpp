#include "spchol/gpu/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace spchol::gpu {

// --- LinkTable -------------------------------------------------------------

void LinkTable::validate(int gpu_devices, const char* what) const {
  if (empty()) return;
  const std::string name(what);
  if (devices < 1) {
    throw InvalidArgument(name + ": LinkTable::devices must be >= 1; got " +
                          std::to_string(devices));
  }
  const std::size_t want = static_cast<std::size_t>(devices) *
                           static_cast<std::size_t>(devices);
  if (gbytes_per_s.size() != want || latency_s.size() != want) {
    throw InvalidArgument(
        name + ": LinkTable must be square (devices^2 = " +
        std::to_string(want) + " entries per table); got " +
        std::to_string(gbytes_per_s.size()) + " bandwidths and " +
        std::to_string(latency_s.size()) + " latencies");
  }
  if (devices < gpu_devices) {
    throw InvalidArgument(name + ": LinkTable covers " +
                          std::to_string(devices) +
                          " devices but gpu_devices = " +
                          std::to_string(gpu_devices));
  }
  for (int i = 0; i < devices; ++i) {
    for (int j = 0; j < devices; ++j) {
      if (i == j) continue;  // diagonal unused
      const double bw = bandwidth(i, j);
      const double lat = latency(i, j);
      if (!(bw > 0.0) || !std::isfinite(bw)) {
        throw InvalidArgument(name + ": link bandwidth (" +
                              std::to_string(i) + "," + std::to_string(j) +
                              ") must be positive and finite; got " +
                              std::to_string(bw));
      }
      if (!(lat >= 0.0) || !std::isfinite(lat)) {
        throw InvalidArgument(name + ": link latency (" +
                              std::to_string(i) + "," + std::to_string(j) +
                              ") must be non-negative and finite; got " +
                              std::to_string(lat));
      }
      if (bw != bandwidth(j, i) || lat != latency(j, i)) {
        throw InvalidArgument(name + ": LinkTable must be symmetric; pair (" +
                              std::to_string(i) + "," + std::to_string(j) +
                              ") differs from its transpose");
      }
    }
  }
}

namespace {

LinkTable filled(int n, double gbps, double latency) {
  LinkTable t;
  t.devices = n;
  const std::size_t sq = static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(n);
  t.gbytes_per_s.assign(sq, gbps);
  t.latency_s.assign(sq, latency);
  return t;
}

void set_pair(LinkTable& t, int i, int j, double gbps, double latency) {
  const std::size_t n = static_cast<std::size_t>(t.devices);
  t.gbytes_per_s[static_cast<std::size_t>(i) * n + j] = gbps;
  t.gbytes_per_s[static_cast<std::size_t>(j) * n + i] = gbps;
  t.latency_s[static_cast<std::size_t>(i) * n + j] = latency;
  t.latency_s[static_cast<std::size_t>(j) * n + i] = latency;
}

}  // namespace

LinkTable LinkTable::uniform(int n, double gbps, double latency) {
  return filled(n, gbps, latency);
}

LinkTable LinkTable::nvlink_islands(int n, int island_size) {
  // Cross-island hops leave NVLink for the PCIe switch fabric: the
  // paper-node PCIe 4.0 rate (24 GB/s, unscaled — switch hops do not
  // enjoy the analog bandwidth scaling the direct links are calibrated
  // with) and a doubled latency for the extra fabric crossing.
  LinkTable t = filled(n, 24.0, 3.0e-6);
  const int island = std::max(island_size, 1);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (i / island == j / island) set_pair(t, i, j, 300.0, 1.5e-6);
    }
  }
  return t;
}

LinkTable LinkTable::pcie_tree(int n) {
  // Consecutive ordinal pairs {0,1}, {2,3}, ... share one PCIe switch;
  // everything else routes through the root complex at half the
  // bandwidth and twice the latency. No NVLink anywhere.
  LinkTable t = filled(n, 12.0, 6.0e-6);
  for (int i = 0; i + 1 < n; i += 2) set_pair(t, i, i + 1, 24.0, 3.0e-6);
  return t;
}

double PerfModel::cpu_kernel_seconds(double flops, int threads) const {
  if (flops <= 0.0) return 0.0;
  threads = std::max(threads, 1);
  // A kernel with few flops cannot keep many threads busy, and skinny
  // supernodal panels stop scaling early regardless of the thread count.
  const double useful =
      std::clamp(flops / cpu_flops_per_thread_grain, 1.0,
                 std::min(static_cast<double>(threads),
                          cpu_max_useful_threads));
  const double rate =
      cpu_core_gflops * 1e9 * std::pow(useful, cpu_parallel_exponent);
  return cpu_call_overhead + cpu_per_thread_overhead * threads +
         flops / rate;
}

double PerfModel::cpu_kernel_seconds_best(double flops) const {
  double best = cpu_kernel_seconds(flops, 1);
  for (const int t : cpu_thread_candidates) {
    best = std::min(best, cpu_kernel_seconds(flops, t));
  }
  return best;
}

double PerfModel::gpu_kernel_seconds(double flops) const {
  if (flops <= 0.0) return 0.0;
  // Size-dependent efficiency: rate(f) = peak · f / (f + f_half).
  const double rate =
      gpu_peak_gflops * 1e9 * flops / (flops + gpu_half_flops);
  return gpu_kernel_launch + flops / rate;
}

double PerfModel::gpu_solve_kernel_seconds(double flops) const {
  if (flops <= 0.0) return 0.0;
  const double rate = gpu_solve_peak_gflops * 1e9 * flops /
                      (flops + gpu_solve_half_flops);
  return gpu_kernel_launch + flops / rate;
}

double PerfModel::gpu_batched_kernel_seconds(double total_flops,
                                             std::size_t count) const {
  return gpu_kernel_seconds(total_flops) +
         static_cast<double>(count) * gpu_batch_member_overhead;
}

double PerfModel::cpu_batched_kernel_seconds_best(double total_flops,
                                                  std::size_t count) const {
  return cpu_kernel_seconds_best(total_flops) +
         static_cast<double>(count) * cpu_batch_member_overhead;
}

double PerfModel::h2d_seconds(double bytes) const {
  return transfer_latency + bytes / (h2d_gbytes_per_s * 1e9);
}

double PerfModel::d2h_seconds(double bytes) const {
  return transfer_latency + bytes / (d2h_gbytes_per_s * 1e9);
}

double PerfModel::p2p_seconds(double bytes) const {
  return p2p_latency + bytes / (p2p_gbytes_per_s * 1e9);
}

double PerfModel::p2p_seconds(int src, int dst, double bytes) const {
  if (links.empty() || src < 0 || dst < 0) return p2p_seconds(bytes);
  // Registry-shrink convention: a plan built for N devices may execute on
  // M < N; the executors fold ordinals mod M, and the table folds the
  // same way so every hop still prices against a real link.
  src %= links.devices;
  dst %= links.devices;
  if (src == dst) return p2p_seconds(bytes);
  return links.latency(src, dst) +
         bytes / (links.bandwidth(src, dst) * 1e9);
}

double PerfModel::assembly_seconds(double entries, int threads) const {
  if (entries <= 0.0) return 0.0;
  threads = std::max(threads, 1);
  const double speedup =
      std::pow(static_cast<double>(threads), assembly_parallel_exponent);
  return assembly_fork_overhead +
         entries * assembly_seconds_per_entry / speedup;
}

PerfModel PerfModel::a100_nominal() {
  PerfModel m;
  m.cpu_max_useful_threads = 128.0;
  m.gpu_peak_gflops = 8500.0;
  m.gpu_half_flops = 2.0e8;
  m.gpu_solve_peak_gflops = 2100.0;
  m.gpu_solve_half_flops = 4.0e7;
  m.h2d_gbytes_per_s = 24.0;
  m.d2h_gbytes_per_s = 22.0;
  m.p2p_gbytes_per_s = 600.0;
  m.p2p_latency = 5.0e-6;
  m.cpu_call_overhead = 2.0e-6;
  m.cpu_flops_per_thread_grain = 4.0e5;
  m.gpu_kernel_launch = 1.0e-5;
  m.issue_overhead = 2.0e-6;
  m.transfer_latency = 8.0e-6;
  m.assembly_fork_overhead = 4.0e-6;
  return m;
}

}  // namespace spchol::gpu
