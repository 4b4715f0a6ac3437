#include "spchol/gpu/perf_model.hpp"

#include <algorithm>
#include <cmath>

namespace spchol::gpu {

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
  m.h2d_gbytes_per_s = 24.0;
  m.d2h_gbytes_per_s = 22.0;
  m.cpu_call_overhead = 2.0e-6;
  m.cpu_flops_per_thread_grain = 4.0e5;
  m.gpu_kernel_launch = 1.0e-5;
  m.issue_overhead = 2.0e-6;
  m.transfer_latency = 8.0e-6;
  m.assembly_fork_overhead = 4.0e-6;
  return m;
}

}  // namespace spchol::gpu
