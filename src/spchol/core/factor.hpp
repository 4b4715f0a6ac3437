// Numeric right-looking supernodal Cholesky factorization — the paper's
// two base algorithms (RL, RLB) and their GPU-accelerated variants.
//
//  * RL  (§II.A): factor the supernode (DPOTRF + DTRSM), compute its whole
//    update matrix with one DSYRK into scratch, then scatter-assemble into
//    the ancestor supernodes using generalized relative indices.
//  * RLB (§II.B): factor the supernode the same way, then walk its block
//    pairs (B, B′) issuing one DSYRK per diagonal target and one DGEMM per
//    off-diagonal target, writing directly into ancestor factor storage —
//    no update matrix.
//  * GPU RL (§III): H2D(supernode) → device POTRF/TRSM → asynchronous
//    D2H(factored panel) overlapped with device SYRK → D2H(update matrix)
//    → parallel CPU assembly.
//  * GPU RLB v1 (kBatched): per-block device SYRK/DGEMM products kept on
//    the device, one batched D2H, CPU assembly (memory footprint = RL).
//  * GPU RLB v2 (kStreamed): each block product transferred and assembled
//    immediately (lowest memory footprint; the only method that survives
//    the nlpkkt120-class device OOM).
//  * Hybrid threshold (§III): supernodes whose dense storage (rows ×
//    columns) is below the threshold stay entirely on the CPU
//    (paper defaults: 600,000 for RL, 750,000 for RLB).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "spchol/gpu/device.hpp"
#include "spchol/graph/ordering.hpp"
#include "spchol/symbolic/symbolic_factor.hpp"

namespace spchol {

namespace detail {
struct ExecutionResources;  // internal.hpp: injected runtime services
}

enum class Method {
  kRL,           ///< right-looking, single update matrix (§II.A)
  kRLB,          ///< right-looking blocked, direct updates (§II.B)
  kLeftLooking,  ///< supernodal left-looking baseline (CPU only)
};

enum class Execution {
  /// Single-threaded CPU execution (and the 1-thread BLAS time model).
  kCpuSerial,
  /// Real multithreaded CPU execution: an elimination-tree task scheduler
  /// dispatches supernode compute/scatter tasks onto `cpu_workers`
  /// threads (results bitwise identical to kCpuSerial); modeled time uses
  /// the paper's best-of-{8..128}-thread MKL sweep.
  kCpuParallel,
  /// Threshold split: large supernodes run the sequential GPU pipeline,
  /// small supernodes execute concurrently on CPU worker threads so the
  /// host no longer idles during device kernels.
  kGpuHybrid,
  kGpuOnly,  ///< every BLAS call on the device (paper's first experiment)
};

enum class RlbVariant {
  kBatched,   ///< v1: updates retained on device, one batched transfer
  kStreamed,  ///< v2: per-block transfer + assembly (low memory)
};

const char* to_string(Method m);
const char* to_string(Execution e);

struct FactorOptions {
  Method method = Method::kRL;
  Execution exec = Execution::kCpuParallel;
  RlbVariant rlb_variant = RlbVariant::kStreamed;
  /// Supernode-entries threshold below which work stays on the CPU in
  /// kGpuHybrid. The paper's empirically chosen values are 600k (RL) and
  /// 750k (RLB) on its full-scale matrices; the analog dataset is ~30×
  /// smaller, which moves the crossover to ~1/10 of that
  /// (bench_threshold_sweep re-derives it), so the defaults keep the
  /// paper's RL:RLB ratio at dataset scale.
  offset_t gpu_threshold_rl = 60'000;
  offset_t gpu_threshold_rlb = 75'000;
  /// Simulated device configuration (memory capacity, performance model)
  /// of a per-call run; an injected runtime brings its own device. Every
  /// rate and peak of `device.model` must be positive and finite, every
  /// latency and overhead non-negative and finite (InvalidArgument
  /// otherwise, gpu::validate). The model never changes numerics.
  gpu::DeviceConfig device{};
  /// Models the paper's device-resident factor storage: each GPU
  /// supernode's factored panel stays allocated on the device until the
  /// factorization completes (scheduled kGpuHybrid paths only), so the
  /// device must hold the SUM of the GPU panels on top of its slot
  /// buffers — the 40 GB bound that fails nlpkkt120 in Table I. Default
  /// off: transient buffers only.
  bool device_resident_factor = false;
  /// Threads a per-call factorization uses in total, the calling thread
  /// included: one crew of cpu_workers − 1 threads runs the etree task
  /// DAG (kCpuParallel, and the CPU side of kGpuHybrid), the dense kernel
  /// bands and the device kernels. 0 = hardware concurrency; negative
  /// values are rejected with InvalidArgument. A value of 1 keeps the
  /// sequential driver with every kernel on the calling thread (still
  /// bitwise identical). Under a SolverRuntime the runtime's crew runs
  /// instead, and this count only picks the driver and the modeled CPU
  /// lanes.
  int cpu_workers = 0;
};

/// Options of one triangular-solve call (CholeskyFactor::solve /
/// solve_multi with options, SolverSession::solve). The solve path reuses
/// the factorization's Execution taxonomy: kCpuSerial is the plain
/// sweep, kCpuParallel runs the SolvePlan task DAG on worker threads,
/// kGpuHybrid additionally routes large supernodes through the
/// stream-pooled device path, kGpuOnly sends every supernode there.
/// Results are bitwise identical to the serial sweep for EVERY setting.
struct SolveOptions {
  Execution exec = Execution::kCpuParallel;
  /// Threads a per-call scheduled solve uses in total, the calling
  /// thread included (a crew of workers − 1 threads runs its DAG and
  /// device nodes). 0 = hardware concurrency; 1 keeps the serial sweep
  /// on the calling thread; negative values are rejected with
  /// InvalidArgument. Under a SolverRuntime the runtime's crew runs
  /// instead.
  int workers = 0;
  /// Right-hand-side columns per panel: each plan node becomes one task
  /// per panel, so panels are the unit of RHS parallelism and the
  /// GEMM shape of the supernode solves. >= 1; rejected otherwise.
  index_t rhs_panel = 8;
  /// Supernode-entries threshold at or above which a supernode's solve
  /// runs on the device in kGpuHybrid (fused gather + TRSM + GEMM +
  /// scatter). Negative values are rejected with InvalidArgument.
  offset_t gpu_threshold = 60'000;
  /// Simulated device configuration (used only when no shared device is
  /// injected and the exec mode touches the device); validated as in
  /// FactorOptions.
  gpu::DeviceConfig device{};
};

/// Rejects malformed SolveOptions with InvalidArgument (negative
/// workers, rhs_panel < 1, negative gpu_threshold, an invalid device
/// model). Every solve entry point calls this before touching the
/// right-hand side.
void validate(const SolveOptions& opts);

/// Execution statistics of one solve / solve_multi call.
struct SolveStats {
  double seconds = 0.0;  ///< real wall time of the call
  /// Sum of measured per-task durations replayed through a greedy list
  /// schedule at 1 and at `workers` workers — the modeled serial and
  /// parallel solve times (machine-independent speedup convention; see
  /// TaskScheduler::modeled_makespan). Zero on the serial path.
  double modeled_serial_seconds = 0.0;
  double modeled_parallel_seconds = 0.0;
  std::size_t tasks = 0;      ///< scheduler tasks executed (0 = serial)
  std::size_t edges = 0;      ///< dependency edges after deduplication
  std::size_t workers = 1;    ///< resolved worker count
  index_t rhs_panels = 0;     ///< RHS panels the plan was instantiated for
  index_t supernodes_on_gpu = 0;  ///< supernodes solved on the device
  index_t gpu_stream_pairs = 0;   ///< solve slot pairs actually allocated
  index_t batches_formed = 0;
  index_t supernodes_batched = 0;
};

/// Modeled + measured execution statistics of one factorization.
struct FactorStats {
  double modeled_seconds = 0.0;  ///< the "runtime" Tables I/II report
  double wall_seconds = 0.0;     ///< real wall time of the simulation
  index_t supernodes_on_gpu = 0;
  index_t total_supernodes = 0;
  double cpu_blas_seconds = 0.0;
  double gpu_kernel_seconds = 0.0;
  double h2d_seconds = 0.0;
  double d2h_seconds = 0.0;
  double assembly_seconds = 0.0;
  std::size_t device_peak_bytes = 0;
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
  std::size_t num_gpu_kernels = 0;
  std::size_t num_cpu_blas_calls = 0;
  double flops = 0.0;
  // --- etree task scheduler counters (zero on the sequential drivers) ---
  std::size_t scheduler_tasks = 0;        ///< tasks executed
  std::size_t scheduler_max_ready = 0;    ///< peak ready-queue depth
  std::size_t scheduler_threads_used = 0; ///< workers that ran ≥ 1 task
  std::size_t scheduler_workers = 0;      ///< worker threads launched
  /// Always 0: the scheduler has one ready queue, so no task runs off a
  /// home queue. Kept because the request benchmark
  /// (reqbench/bench_request.cpp) reads it into `support.steals`.
  std::size_t scheduler_steals = 0;
  // --- symbolic analysis phase timers of the SymbolicFactor used --------
  // (copied from SymbolicFactor::stats() so one struct describes the
  // whole analyze + factorize pipeline).
  SymbolicStats symbolic{};
  // --- ordering pipeline stats of the permutation used ------------------
  // (filled by CholeskySolver, which ran compute_ordering; default when
  // the factor was built from a caller-supplied permutation).
  OrderingStats ordering{};
  // --- multi-stream GPU pipelining counters ------------------------------
  /// Stream-pair/buffer slots actually allocated for GPU supernode tasks
  /// (at most 4 and at most one per device task; fewer under device
  /// memory pressure; 1 on the sequential GPU drivers; 0 when nothing ran
  /// on the device). The replay models exactly this many stream pairs.
  index_t gpu_stream_pairs = 0;
  /// Modeled seconds during which ≥ 2 device streams had work in flight.
  /// Kernels never overlap each other (the device has one compute
  /// engine), so this is copy time hidden behind kernels or other copies:
  /// a single pair's async panel copy against its own compute stream,
  /// and one slot's transfers against another slot's kernels.
  double gpu_overlap_seconds = 0.0;
  /// GPU tasks that were ready but parked waiting for a free slot.
  std::size_t scheduler_resource_waits = 0;
  /// Dependency edges of the executed task graph (after deduplication);
  /// the plan's coarsening shrinks both tasks and edges.
  std::size_t scheduler_edges = 0;
  // --- task-grain counters ------------------------------------------------
  /// BATCH plan nodes the scheduled driver executed (0 when the plan
  /// coarsened nothing or the driver ran sequentially).
  index_t batches_formed = 0;
  /// Supernodes coalesced into those batches.
  index_t supernodes_batched = 0;
  /// Fused batched device launches issued (kGpuHybrid RL: one panel-factor
  /// plus one update launch per device-executed batch).
  std::size_t fused_device_launches = 0;
  /// Tasks whose LAST unmet dependency was a same-target chain edge
  /// (SchedulerStats::chain_waits): how often the per-target scatter
  /// chains, rather than data readiness, held a task back.
  std::size_t scheduler_chain_waits = 0;
  /// Measured per-task durations replayed through a greedy list schedule
  /// at 1 and at `scheduler_workers` workers — the modeled serial and
  /// parallel factorization task makespans (the machine-independent
  /// speedup convention; see TaskScheduler::modeled_makespan). Zero on
  /// the sequential drivers. Unlike modeled_seconds (the replay of
  /// the modeled costs), these replay MEASURED task times.
  double modeled_task_serial_seconds = 0.0;
  double modeled_task_parallel_seconds = 0.0;
  // --- solve-path accumulators (filled by CholeskySolver, which owns the
  // solve traffic; zero on a factor that never solved) ---------------------
  double solve_seconds = 0.0;      ///< wall time summed over solve calls
  std::size_t solve_calls = 0;     ///< solve / solve_multi calls
  std::size_t solve_tasks = 0;     ///< scheduled solve tasks executed
};

/// Rejects malformed FactorOptions with InvalidArgument (negative
/// cpu_workers or thresholds; an invalid device model).
/// factorize() calls this itself; CholeskySolver and SolverService call
/// it up front so a bad option set fails at analyze()/session creation,
/// before any ordering or symbolic work runs.
void validate(const FactorOptions& opts);

class CholeskyFactor {
 public:
  /// Factorizes PAPᵀ = LLᵀ where P is symb.permutation() and A is given by
  /// its lower triangle in the ORIGINAL ordering. Throws InvalidArgument
  /// on malformed options (negative cpu_workers or thresholds, an
  /// invalid device model), NotPositiveDefinite (column reported in
  /// original indices), or gpu::DeviceOutOfMemory (RL on
  /// matrices whose update matrix exceeds device capacity — the paper's
  /// nlpkkt120 row).
  static CholeskyFactor factorize(const CscMatrix& a_lower,
                                  const SymbolicFactor& symb,
                                  const FactorOptions& opts = {});

  /// Factorizes on injected long-lived runtime services (shared worker
  /// crew and device, per-session scheduler, cached plan and its slot
  /// pool) instead of per-call constructions — the
  /// SolverRuntime/SolverService entry point. `res` may be nullptr
  /// (identical to the 3-arg overload) and any of its fields may
  /// individually be nullptr. Injection never changes factor bits or
  /// modeled stats — only scheduling and resource reuse.
  static CholeskyFactor factorize(const CscMatrix& a_lower,
                                  const SymbolicFactor& symb,
                                  const FactorOptions& opts,
                                  const detail::ExecutionResources* res);

  const SymbolicFactor& symbolic() const noexcept { return *symb_; }
  const FactorStats& stats() const noexcept { return stats_; }
  std::span<const double> values() const noexcept {
    return {values_.data(), values_.size()};
  }

  /// L(i, j) in the PERMUTED index space; 0.0 outside the stored structure.
  double entry(index_t i, index_t j) const;

  /// Explicit CSC copy of L (permuted space, trapezoids only) — test aid.
  CscMatrix to_csc_lower() const;

  /// Solves A x = b in the ORIGINAL ordering (permutation applied
  /// internally). b and x have length n; aliasing allowed.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Solves A X = B for `nrhs` right-hand sides stored column-major
  /// (n × nrhs). Each supernode panel is traversed once per column block,
  /// so this is cheaper than nrhs separate solve() calls.
  void solve_multi(std::span<const double> b, std::span<double> x,
                   index_t nrhs) const;

  /// Plan-driven scheduled solves: the SolvePlan forward/backward task
  /// DAGs run on `opts.workers` threads with the RHS blocked into
  /// `opts.rhs_panel`-column panels (and, in the GPU modes, large
  /// supernodes solved on the device). Bitwise identical to the serial
  /// sweep for every worker/stream/panel setting; opts.workers <= 1 or
  /// Execution::kCpuSerial IS the serial sweep. Throws InvalidArgument
  /// on malformed options or size mismatches.
  void solve(std::span<const double> b, std::span<double> x,
             const SolveOptions& opts, SolveStats* stats = nullptr) const;
  void solve_multi(std::span<const double> b, std::span<double> x,
                   index_t nrhs, const SolveOptions& opts,
                   SolveStats* stats = nullptr) const;

  /// Solve with iterative refinement: x ← x + A⁻¹(b − Ax) until the
  /// relative residual stops improving or `max_iterations` is reached.
  /// Returns the final relative residual.
  double solve_refined(const CscMatrix& a_lower, std::span<const double> b,
                       std::span<double> x, int max_iterations = 3) const;

 private:
  std::shared_ptr<const SymbolicFactor> symb_;
  std::vector<double> values_;
  FactorStats stats_;
};

}  // namespace spchol
