// The modeled-time model of a factorization: one deterministic replay of
// the executed task DAG over the costs each node recorded. Not part of
// the public API.
//
// Executors never advance a clock. Each plan node (or one step of a
// sequential driver) records its CPU seconds and device ops
// (gpu::OpRecord); after the drain this replay list-schedules the DAG in
// task priority order, ties to the lower node index, over explicit
// modeled resources:
//   * `cpu_lanes` host lanes (the resolved cpu_workers; 1 for the
//     sequential drivers). A node holds a lane from its start to its last
//     host activity — CPU seconds and device-op issue time; a trailing
//     wait for its device work does not keep the lane busy;
//   * `pairs` stream pairs on the device, one per slot the executor
//     built. A node that touches the device takes the pair that frees
//     earliest (lowest index first); its ops start no earlier than the
//     pair was free (the slot-reuse hazard), ops on one stream run in
//     issue order, and an op waits for the op it names in Op::after;
//   * one compute engine: every kernel, whichever stream issues it, runs
//     alone on the device, in replay order. Streams overlap copies with
//     kernels, never kernels with kernels, so a small supernode's launch
//     latency is never hidden behind another kernel;
//   * one host link per direction: H2D and D2H transfers share it
//     whichever stream issues them, in issue order.
// A node's successors start once its host part has ended, waits
// included; device work it left in flight (an asynchronous panel
// download) only delays later users of its streams and the makespan.
// Every number is a function of the recorded costs and the DAG, so the
// same plan and options give the same bits on any machine and under any
// thread interleaving.
#pragma once

#include <span>

#include "spchol/core/factor.hpp"
#include "spchol/gpu/device.hpp"
#include "spchol/support/task_scheduler.hpp"

namespace spchol::detail {

/// The modeled resources one replay schedules over.
struct ReplayResources {
  std::size_t cpu_lanes = 1;
  std::size_t pairs = 1;  ///< device stream pairs: the slots built
};

/// Replays `g` (node i's costs in records[i]) and fills st's modeled
/// fields: modeled_seconds, cpu_blas_seconds, assembly_seconds,
/// gpu_kernel_seconds, h2d/d2h seconds and bytes, num_gpu_kernels and
/// gpu_overlap_seconds.
void replay(const TaskGraph& g, std::span<const gpu::OpRecord> records,
            const ReplayResources& r, FactorStats& st);

}  // namespace spchol::detail
