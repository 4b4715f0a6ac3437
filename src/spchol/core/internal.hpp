// Shared implementation context for the numeric factorization paths.
// Not part of the public API.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "spchol/core/factor.hpp"
#include "spchol/core/plan_executor.hpp"
#include "spchol/core/replay.hpp"
#include "spchol/dense/kernels.hpp"
#include "spchol/gpu/blas.hpp"
#include "spchol/support/worker_crew.hpp"
#include "spchol/symbolic/etree.hpp"

namespace spchol::detail {

/// True when supernode s runs its BLAS on the device under `opts`: never
/// on the CPU modes, always in kGpuOnly, at or above the method's
/// threshold in kGpuHybrid. The one placement rule of the drivers
/// (FactorContext::on_gpu) and the plan builder alike, so a cached plan
/// and a per-call plan never disagree.
inline bool supernode_on_gpu(const SymbolicFactor& symb,
                             const FactorOptions& opts, index_t s) {
  if (opts.exec == Execution::kCpuSerial ||
      opts.exec == Execution::kCpuParallel) {
    return false;
  }
  return opts.exec == Execution::kGpuOnly ||
         symb.sn_entries(s) >= (opts.method == Method::kRL
                                    ? opts.gpu_threshold_rl
                                    : opts.gpu_threshold_rlb);
}

/// True when a call drains the task scheduler instead of running a
/// sequential driver: more than one worker and a scheduled mode. The
/// factorization schedules kCpuParallel and kGpuHybrid (kGpuOnly keeps the
/// sequential device pipeline); the solve schedules every non-serial mode.
inline bool runs_scheduled(const FactorOptions& o) {
  return (o.exec == Execution::kCpuParallel ||
          o.exec == Execution::kGpuHybrid) &&
         resolve_worker_count(o.cpu_workers) > 1;
}
inline bool runs_scheduled(const SolveOptions& o) {
  return o.exec != Execution::kCpuSerial &&
         resolve_worker_count(o.workers) > 1;
}

/// Where every stored entry of A lands in the supernodal factor storage
/// for one (pattern, symbolic factor) pair: the symbolic half of
/// assembling PAPᵀ into the supernode panels, so a factorization only
/// gathers values. Immutable once built; SolverService caches one per
/// pattern and shares it across concurrent factorizations.
struct AssemblyMap {
  /// A's pattern, exactly as the map was built from it.
  std::vector<offset_t> colptr;
  std::vector<index_t> rowind;
  /// Per A entry, its offset into the factor values — or -1 - offset for
  /// the second of a mirrored pair (A holds both (i,j) and (j,i)), which
  /// the gather adds onto the first instead of assigning.
  std::vector<offset_t> dest;

  bool matches(const CscMatrix& a) const {
    return a.colptr() == colptr && a.rowind() == rowind;
  }
  /// Writes A's values (in pattern order) into zero-filled factor
  /// storage. The first entry at an offset is assigned and a mirrored
  /// second one added, so explicit -0.0 entries survive and a mirrored
  /// pair sums exactly as CooMatrix::to_csc merges it.
  void gather(std::span<const double> a_values,
              std::span<double> values) const {
    for (std::size_t k = 0; k < dest.size(); ++k) {
      const offset_t d = dest[k];
      if (d >= 0) {
        values[static_cast<std::size_t>(d)] = a_values[k];
      } else {
        values[static_cast<std::size_t>(-1 - d)] += a_values[k];
      }
    }
  }
};

/// Builds the map of `a`'s pattern into `symb`'s factor storage
/// (factor.cpp). Throws when an entry of A falls outside the symbolic
/// structure.
AssemblyMap build_assembly_map(const CscMatrix& a,
                               const SymbolicFactor& symb);

/// ‖A‖∞ of a symmetric matrix given by its lower triangle.
double sym_lower_inf_norm(const CscMatrix& a_lower);

/// ‖b − ax‖∞ / (anorm·‖x‖∞ + ‖b‖∞), with ax = A·x already computed.
double relative_residual(std::span<const double> ax,
                         std::span<const double> x,
                         std::span<const double> b, double anorm);

/// Plan-driven triangular solve executor (solve.cpp): permutes b in,
/// runs the serial sweeps or the scheduled SolvePlan DAGs per
/// `opts`/`res`, permutes x out. `b`/`x` are n × nrhs column-major in
/// the ORIGINAL ordering; aliasing allowed. Bitwise identical to the
/// serial sweeps for every worker/stream/panel configuration.
void solve_with_resources(const SymbolicFactor& symb,
                          std::span<const double> values,
                          std::span<const double> b, std::span<double> x,
                          index_t nrhs, const SolveOptions& opts,
                          const ExecutionResources* res, SolveStats* stats);

/// Fault injection for the solve's failure tests: while one is alive,
/// every task of scheduled solve plan node `node` throws Error instead of
/// running, so the solve fails mid-DAG. Not an option; scopes do not nest.
class SolveFault {
 public:
  explicit SolveFault(std::size_t node);
  ~SolveFault();
  SolveFault(const SolveFault&) = delete;
  SolveFault& operator=(const SolveFault&) = delete;
};

/// One in-flight RL device node's buffers, ranked by a slot pool: the
/// supernode's panel (its L rectangle) and a work buffer (the update
/// matrix).
struct GpuSlot {
  gpu::DeviceBuffer panel;
  gpu::DeviceBuffer work;

  GpuSlot(gpu::Device& dev, std::size_t panel_entries,
          std::size_t work_entries) {
    if (panel_entries > 0) panel = gpu::DeviceBuffer(dev, panel_entries);
    if (work_entries > 0) work = gpu::DeviceBuffer(dev, work_entries);
  }
  bool fits(std::size_t p, std::size_t w) const {
    return panel.size() >= p && work.size() >= w;
  }
};

/// Everything the RL/RLB kernels need: symbolic data, factor values, the
/// simulated device, and the cost records the modeled stats are
/// replayed from (core/replay.hpp).
///
/// Threading model. A run has one set of threads: its crew (the
/// injected SolverRuntime crew, else a per-call one of cpu_workers − 1
/// threads) plus the calling thread. In kCpuSerial every kernel runs on
/// the calling thread. In the scheduled modes (kCpuParallel, and the CPU
/// side of kGpuHybrid, with cpu_workers > 1) supernode tasks drain on the
/// crew, and each task's dense kernels fork on the same crew with a width
/// of the crew width divided by the tasks in flight (near the etree root
/// one big panel gets every thread, including the caller, which helps
/// with forked kernels while it waits for ready tasks; deep in the tree
/// each task stays serial). The sequential drivers of the other modes
/// fork every kernel at the full crew width, and the device's kernels
/// fork on the crew the device was given (gpu::Device::crew). The dense
/// kernels partition their OUTPUT with a fixed accumulation order, so
/// the width never changes the bits — determinism only depends on the
/// scatter ordering, which the task graph serializes per target
/// supernode in ascending source order.
///
/// Modeled time. Every node — a scheduler task, or one step of a
/// sequential driver — runs under a NodeScope that points this thread's
/// account_* calls and device ops at the node's own record, so recording
/// takes no lock. factorize() replays the records over `graph` (or over
/// the chain of steps when no scheduler ran) with `lanes` CPU lanes and
/// one device stream pair per slot the driver built (gpu_stream_pairs).
struct FactorContext {
  const SymbolicFactor& symb;
  std::vector<double>& values;
  const FactorOptions& opts;
  const ExecutionResources* res;  ///< injected services; may be nullptr
  std::size_t workers;         ///< resolved cpu_workers (replay lanes)
  bool scheduled;              ///< task scheduler drives this run
  std::optional<WorkerCrew> own_crew;  ///< the per-call crew, if any
  WorkerCrew& crew;            ///< the injected crew, else own_crew
  std::optional<gpu::Device> own_dev;  ///< the per-call device, if any
  gpu::Device& dev;            ///< the injected device, else own_dev

  /// One cost record per node; `graph` is the DAG the scheduler ran them
  /// in (empty: the sequential drivers' chain of steps).
  std::vector<gpu::OpRecord> records;
  TaskGraph graph;
  std::size_t lanes = 1;  ///< modeled CPU lanes of the replay

  std::atomic<std::size_t> num_cpu_blas_calls{0};
  index_t supernodes_on_gpu = 0;
  index_t gpu_stream_pairs = 0;  ///< stream/buffer slots the driver used
  index_t batches_formed = 0;        ///< BATCH plan nodes executed
  index_t supernodes_batched = 0;    ///< supernodes coalesced into them
  std::size_t fused_device_launches = 0;
  /// Modeled task-graph makespans at 1 worker and at ctx.workers
  /// (TaskScheduler::modeled_makespan after the drain); zero on the
  /// sequential drivers.
  double modeled_task_serial_seconds = 0.0;
  double modeled_task_parallel_seconds = 0.0;
  SchedulerStats sched_stats{};

  FactorContext(const SymbolicFactor& s, std::vector<double>& v,
                const FactorOptions& o,
                const ExecutionResources* r = nullptr)
      : symb(s),
        values(v),
        opts(o),
        res(r),
        workers(resolve_worker_count(o.cpu_workers)),
        scheduled(runs_scheduled(o)),
        crew(r != nullptr && r->crew != nullptr
                 ? *r->crew
                 : own_crew.emplace(o.exec == Execution::kCpuSerial
                                        ? 0
                                        : workers - 1)),
        dev(r != nullptr && r->device != nullptr ? *r->device
                                                 : own_dev.emplace(o.device)) {
    if (own_dev) own_dev->set_crew(&crew);
  }

  double* sn_values(index_t s) {
    return values.data() + symb.sn_values_offset(s);
  }

  /// True when supernode s runs its BLAS on the device.
  bool on_gpu(index_t s) const { return supernode_on_gpu(symb, opts, s); }

  /// Real fork width for one dense kernel / assembly loop: the crew
  /// width (its threads + the caller), shared by the tasks in flight.
  std::size_t kernel_threads() const {
    if (opts.exec == Execution::kCpuSerial) return 1;
    const std::size_t width = crew.size() + 1;
    if (!scheduled) return width;
    const std::size_t act =
        std::max<std::size_t>(1, active_tasks_.load(std::memory_order_relaxed));
    return std::max<std::size_t>(1, width / act);
  }

  /// RAII scope of one running node: this thread's costs go to
  /// records[id], and the node counts toward the in-flight tasks the
  /// dense kernels' fork width follows.
  class NodeScope {
   public:
    NodeScope(FactorContext& ctx, std::size_t id)
        : ctx_(ctx), prev_(tl_record_) {
      tl_record_ = &ctx.records[id];
      ctx_.active_tasks_.fetch_add(1, std::memory_order_relaxed);
    }
    ~NodeScope() {
      tl_record_ = prev_;
      ctx_.active_tasks_.fetch_sub(1, std::memory_order_relaxed);
    }
    NodeScope(const NodeScope&) = delete;
    NodeScope& operator=(const NodeScope&) = delete;

   private:
    FactorContext& ctx_;
    gpu::OpRecord* prev_;
  };

  /// Opens the next step of a sequential driver: a fresh record, chained
  /// after the previous step's in the replay.
  NodeScope step() {
    records.emplace_back();
    return NodeScope(*this, records.size() - 1);
  }

  /// The running node's record.
  gpu::OpRecord& record() {
    SPCHOL_CHECK(tl_record_ != nullptr, "modeled cost outside a node");
    return *tl_record_;
  }
  /// The running node's (compute, copy) stream handles.
  std::pair<gpu::Stream, gpu::Stream> streams() {
    gpu::OpRecord* rec = &record();
    return {{rec, gpu::Role::kCompute}, {rec, gpu::Role::kCopy}};
  }

  /// Accumulator of the modeled CPU work issued inside one BATCH task.
  struct BatchAccum {
    double flops = 0.0;          // combined flops of every member kernel
    std::size_t calls = 0;       // member kernels issued
    double entries = 0.0;        // factor entries scatter-assembled
  };

  /// RAII scope of one fused CPU batch task: while installed (on this
  /// thread), account_cpu/account_assembly GATHER instead of charging per
  /// call, and the close charges the whole batch as one fused batched
  /// call group plus one fused assembly region
  /// (PerfModel::cpu_batched_kernel_seconds_best) — the modeled
  /// amortization of per-call and per-fork overheads that batching
  /// exists to buy. The REAL kernels still run one member at a time in
  /// ascending order, so the numeric bits never depend on batching.
  class BatchScope {
   public:
    explicit BatchScope(FactorContext& ctx) : ctx_(ctx) {
      prev_ = tl_batch_;
      tl_batch_ = &acc_;
    }
    ~BatchScope() {
      tl_batch_ = prev_;
      ctx_.charge_batched(acc_);
    }
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    FactorContext& ctx_;
    BatchAccum acc_;
    BatchAccum* prev_;
  };

  /// Records `seconds` of host work of `kind` in the running node.
  void charge(gpu::OpKind kind, double seconds) {
    gpu::Op op;
    op.kind = kind;
    op.seconds = seconds;
    record().push_back(op);
  }

  // --- CPU BLAS: execute for real, record the modeled seconds ------------
  void account_cpu(double flops) {
    if (tl_batch_ != nullptr) {  // gathered; charged fused by BatchScope
      tl_batch_->flops += flops;
      tl_batch_->calls++;
      return;
    }
    charge(gpu::OpKind::kCpuBlas,
           opts.exec == Execution::kCpuSerial
               ? dev.model().cpu_kernel_seconds(flops, 1)
               : dev.model().cpu_kernel_seconds_best(flops));
    num_cpu_blas_calls.fetch_add(1, std::memory_order_relaxed);
  }
  void cpu_potrf(index_t n, double* a, index_t lda) {
    dense::potrf_lower_parallel(crew, kernel_threads(), n, a, lda);
    account_cpu(dense::flops_potrf(n));
  }
  void cpu_trsm(index_t m, index_t n, const double* l, index_t ldl, double* b,
                index_t ldb) {
    dense::trsm_right_lower_trans_parallel(crew, kernel_threads(), m, n, l,
                                           ldl, b, ldb);
    account_cpu(dense::flops_trsm(m, n));
  }
  void cpu_syrk(index_t n, index_t k, const double* a, index_t lda, double* c,
                index_t ldc) {
    dense::syrk_lower_nt_parallel(crew, kernel_threads(), n, k, a, lda, c,
                                  ldc);
    account_cpu(dense::flops_syrk(n, k));
  }
  void cpu_gemm(index_t m, index_t n, index_t k, const double* a, index_t lda,
                const double* b, index_t ldb, double* c, index_t ldc) {
    dense::gemm_nt_minus_parallel(crew, kernel_threads(), m, n, k, a, lda, b,
                                  ldb, c, ldc);
    account_cpu(dense::flops_gemm(m, n, k));
  }

  /// Models one parallel-assembly region of `entries` scatter-adds.
  void account_assembly(double entries) {
    if (tl_batch_ != nullptr) {  // gathered; charged fused by BatchScope
      tl_batch_->entries += entries;
      return;
    }
    charge(gpu::OpKind::kAssembly, dev.model().assembly_seconds(entries));
  }

  void count_gpu_supernode() {
    std::lock_guard<std::mutex> lk(account_mu_);
    supernodes_on_gpu++;
  }

  void count_fused_launch() {
    std::lock_guard<std::mutex> lk(account_mu_);
    fused_device_launches++;
  }

 private:
  /// Charges one closed batch: the gathered member kernels as a single
  /// fused batched call group, the gathered scatter-adds as a single
  /// fused assembly region.
  void charge_batched(const BatchAccum& acc) {
    if (acc.calls > 0) {
      charge(gpu::OpKind::kCpuBlas,
             dev.model().cpu_batched_kernel_seconds_best(acc.flops,
                                                         acc.calls));
      num_cpu_blas_calls.fetch_add(acc.calls, std::memory_order_relaxed);
    }
    charge(gpu::OpKind::kAssembly, dev.model().assembly_seconds(acc.entries));
  }

  static inline thread_local BatchAccum* tl_batch_ = nullptr;
  static inline thread_local gpu::OpRecord* tl_record_ = nullptr;

  std::mutex account_mu_;
  std::atomic<std::size_t> active_tasks_{0};
};

template <class Fn>
std::size_t PlanExecutor::add(const PlanNode& n, Fn fn,
                              std::size_t resource) {
  return sched_->add_task(
      n.priority,
      [ctx = ctx_, id = sched_->num_tasks(), fn = std::move(fn)](std::size_t) {
        FactorContext::NodeScope scope(*ctx, id);
        fn();
      },
      resource);
}

/// Factors the supernode panel on the CPU (DPOTRF on the diagonal block,
/// DTRSM on the rectangular part). Throws NotPositiveDefinite with the
/// PERMUTED global column index.
void cpu_factor_panel(FactorContext& ctx, index_t s);

/// RL assembly: adds the host update matrix `u` (below × below,
/// ld = below, holding MINUS the outer product) into the ancestors of s
/// — only into target supernode `only` when it is >= 0. Returns the
/// number of entries scattered (for the assembly model).
double rl_assemble(FactorContext& ctx, index_t s, const double* u,
                   index_t only = -1);

/// RL / RLB / left-looking drivers (rl.cpp, rlb.cpp, left_looking.cpp).
/// Each dispatches to a sequential loop (kCpuSerial, kGpuOnly, or a
/// single worker) or the etree task scheduler (ctx.scheduled).
void run_rl(FactorContext& ctx);
void run_rlb(FactorContext& ctx);
void run_left_looking(FactorContext& ctx);

}  // namespace spchol::detail
