// Shared implementation context for the numeric factorization paths.
// Not part of the public API.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "spchol/core/factor.hpp"
#include "spchol/core/plan_executor.hpp"
#include "spchol/dense/kernels.hpp"
#include "spchol/gpu/blas.hpp"
#include "spchol/support/thread_pool.hpp"
#include "spchol/symbolic/etree.hpp"

namespace spchol::detail {

/// True when supernode s runs its BLAS on the device under `opts` — the
/// hybrid threshold split of the drivers (FactorContext::on_gpu) and the
/// plan builder alike.
inline bool supernode_on_gpu(const SymbolicFactor& symb,
                             const FactorOptions& opts, index_t s) {
  return gpu_marked(opts.exec,
                    opts.method == Method::kRL ? opts.gpu_threshold_rl
                                               : opts.gpu_threshold_rlb,
                    symb.sn_entries(s));
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

/// Everything the RL/RLB kernels need: symbolic data, factor values,
/// the simulated device (whose host clock is the modeled CPU timeline),
/// and accumulators for the stats breakdown.
///
/// Threading model. In kCpuSerial every kernel runs on one thread. In the
/// scheduled modes (kCpuParallel, and the CPU side of kGpuHybrid, with
/// cpu_workers > 1) supernode tasks execute concurrently on dedicated
/// scheduler workers; each task's dense kernels additionally fork onto
/// ThreadPool::global(), with a width that shrinks as more tasks are in
/// flight (near the etree root one big panel gets the whole machine; deep
/// in the tree each task stays serial). The dense kernels partition their
/// OUTPUT with a fixed accumulation order, so the width never changes the
/// bits — determinism only depends on the scatter ordering, which the
/// task graph serializes per target supernode in ascending source order.
struct FactorContext {
  const SymbolicFactor& symb;
  std::vector<double>& values;
  const FactorOptions& opts;
  const ExecutionResources* res;  ///< injected services; may be nullptr
  /// The devices GPU work shards across (injected or per call).
  DeviceSet devices;
  /// Device 0 — the primary device. It carries the modeled host clock
  /// (the deferred CPU/assembly floor folds here exactly once).
  gpu::Device& dev;
  ThreadPool& pool;            ///< backend for nested parallel kernels
  std::size_t blas_capacity;   ///< pool workers + calling thread
  std::size_t workers;         ///< resolved scheduler worker count
  bool scheduled;              ///< task scheduler drives this run
  std::size_t ndev;            ///< effective device count for this run

  double cpu_blas_seconds = 0.0;
  double assembly_seconds = 0.0;
  std::size_t num_cpu_blas_calls = 0;
  index_t supernodes_on_gpu = 0;
  index_t gpu_stream_pairs = 0;  ///< stream/buffer slots the driver used
  index_t batches_formed = 0;        ///< BATCH plan nodes executed
  index_t supernodes_batched = 0;    ///< supernodes coalesced into them
  std::size_t fused_device_launches = 0;
  /// Cross-device separator assembly, modeled: when a contributor's
  /// update matrix was produced on one device and its target panel lives
  /// on another, the scatter pays an explicit D2H→H2D hop (the factor
  /// panels themselves are assembled on the host in the fixed per-target
  /// order, so the BITS never depend on the hop — only the timeline).
  double cross_device_assembly_seconds = 0.0;
  std::size_t cross_device_transfer_bytes = 0;
  std::size_t num_cross_device_transfers = 0;
  /// Supernodes executed through the cooperative all-device pipeline.
  index_t coop_supernodes = 0;
  /// Modeled task-graph makespans at 1 worker and at ctx.workers
  /// (TaskScheduler::modeled_makespan after the drain); zero on the
  /// sequential drivers.
  double modeled_task_serial_seconds = 0.0;
  double modeled_task_parallel_seconds = 0.0;
  SchedulerStats sched_stats{};
  /// Per-effective-device stats/timeline at construction (index =
  /// device ordinal < ndev). On a shared long-lived device the
  /// accumulators reflect every run so far; factorize() subtracts these
  /// baselines so one call's FactorStats report only its own contribution
  /// (a per-call device makes them zero).
  std::vector<gpu::DeviceStats> dev_stats0_of;
  std::vector<double> makespan0_of;
  /// GPU supernodes routed to each device ordinal (stats breakdown).
  std::vector<index_t> gpu_supernodes_of;

  FactorContext(const SymbolicFactor& s, std::vector<double>& v,
                const FactorOptions& o,
                const ExecutionResources* r = nullptr)
      : symb(s),
        values(v),
        opts(o),
        res(r),
        devices(r, o.device, o.gpu_devices),
        dev(devices.primary()),
        pool(ThreadPool::global()),
        blas_capacity(ThreadPool::global().concurrency()),
        workers(resolve_worker_count(o.cpu_workers)),
        scheduled(runs_scheduled(o)),
        ndev(devices.size()) {
    dev_stats0_of.reserve(ndev);
    makespan0_of.reserve(ndev);
    for (std::size_t d = 0; d < ndev; ++d) {
      gpu::Device& dd = device(static_cast<index_t>(d));
      dev_stats0_of.push_back(dd.stats());
      makespan0_of.push_back(dd.makespan());
    }
    gpu_supernodes_of.assign(ndev, 0);
    link_accum_.assign(ndev * ndev, LinkAccum{});
  }

  /// Device a plan-node ordinal resolves to (DeviceSet::device).
  gpu::Device& device(index_t ordinal) { return devices.device(ordinal); }

  double* sn_values(index_t s) {
    return values.data() + symb.sn_values_offset(s);
  }

  /// True when supernode s runs its BLAS on the device.
  bool on_gpu(index_t s) const { return supernode_on_gpu(symb, opts, s); }

  /// Real fork width for one dense kernel / assembly loop.
  std::size_t kernel_threads() const {
    if (opts.exec == Execution::kCpuSerial) return 1;
    if (!scheduled) return blas_capacity;
    const std::size_t act =
        std::max<std::size_t>(1, active_tasks_.load(std::memory_order_relaxed));
    return std::max<std::size_t>(1, blas_capacity / act);
  }

  /// RAII marker for a task in flight (feeds the dynamic kernel width).
  class TaskScope {
   public:
    explicit TaskScope(FactorContext& ctx) : ctx_(ctx) {
      ctx_.active_tasks_.fetch_add(1, std::memory_order_relaxed);
    }
    ~TaskScope() {
      ctx_.active_tasks_.fetch_sub(1, std::memory_order_relaxed);
    }
    TaskScope(const TaskScope&) = delete;
    TaskScope& operator=(const TaskScope&) = delete;

   private:
    FactorContext& ctx_;
  };

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

  /// Charges `t` modeled host seconds (and `calls` BLAS calls) to
  /// `bucket`: inline on the host clock in the sequential drivers,
  /// deferred for flush_deferred() in scheduled runs.
  void charge_host(double t, double& bucket, std::size_t calls = 0) {
    std::lock_guard<std::mutex> lk(account_mu_);
    if (scheduled) {
      deferred_host_seconds_ += t;
    } else {
      dev.advance_host(t);
    }
    bucket += t;
    num_cpu_blas_calls += calls;
  }

  // --- CPU BLAS: execute for real, advance the modeled host clock --------
  //
  // Sequential drivers advance the device host clock inline (exactly the
  // pre-scheduler behaviour). Scheduled runs must not touch the device
  // from concurrent tasks, so they accumulate under a mutex and
  // flush_deferred() folds the total into the host clock once the graph
  // has drained — the sum is order-independent, and in kGpuHybrid this is
  // precisely the overlap win: CPU supernode work no longer delays the
  // issue of device operations.
  void account_cpu(double flops) {
    if (tl_batch_ != nullptr) {  // gathered; charged fused by BatchScope
      tl_batch_->flops += flops;
      tl_batch_->calls++;
      return;
    }
    charge_host(opts.exec == Execution::kCpuSerial
                    ? dev.model().cpu_kernel_seconds(flops, 1)
                    : dev.model().cpu_kernel_seconds_best(flops),
                cpu_blas_seconds, /*calls=*/1);
  }
  void cpu_potrf(index_t n, double* a, index_t lda) {
    dense::potrf_lower_parallel(pool, kernel_threads(), n, a, lda);
    account_cpu(dense::flops_potrf(n));
  }
  void cpu_trsm(index_t m, index_t n, const double* l, index_t ldl, double* b,
                index_t ldb) {
    dense::trsm_right_lower_trans_parallel(pool, kernel_threads(), m, n, l,
                                           ldl, b, ldb);
    account_cpu(dense::flops_trsm(m, n));
  }
  void cpu_syrk(index_t n, index_t k, const double* a, index_t lda, double* c,
                index_t ldc) {
    dense::syrk_lower_nt_parallel(pool, kernel_threads(), n, k, a, lda, c,
                                  ldc);
    account_cpu(dense::flops_syrk(n, k));
  }
  void cpu_gemm(index_t m, index_t n, index_t k, const double* a, index_t lda,
                const double* b, index_t ldb, double* c, index_t ldc) {
    dense::gemm_nt_minus_parallel(pool, kernel_threads(), m, n, k, a, lda, b,
                                  ldb, c, ldc);
    account_cpu(dense::flops_gemm(m, n, k));
  }

  /// Models one parallel-assembly region of `entries` scatter-adds.
  void account_assembly(double entries) {
    if (tl_batch_ != nullptr) {  // gathered; charged fused by BatchScope
      tl_batch_->entries += entries;
      return;
    }
    charge_host(dev.model().assembly_seconds(entries), assembly_seconds);
  }

  void count_gpu_supernode(index_t device_ord = 0) {
    std::lock_guard<std::mutex> lk(account_mu_);
    supernodes_on_gpu++;
    const std::size_t d = device_ord < 0
                              ? 0
                              : static_cast<std::size_t>(device_ord) % ndev;
    if (d < gpu_supernodes_of.size()) gpu_supernodes_of[d]++;
  }

  /// One supernode executed through the cooperative (all-device) pipeline.
  void count_coop_supernode() {
    std::lock_guard<std::mutex> lk(account_mu_);
    coop_supernodes++;
  }

  /// Models the hop of one cross-device scatter: `entries` update-matrix
  /// entries produced on device ordinal `src`, assembled into a target
  /// panel owned by ordinal `dst`. Without a link topology this is the
  /// legacy D2H→H2D price (ship to host, re-stage — byte-identical to
  /// pre-topology runs); with PerfModel::links set the hop rides the
  /// actual src→dst link instead, so cross-island hops cost their real
  /// bandwidth. Order-independent deferred sum folded into the host
  /// floor by flush_deferred() — the measured price of sharding the
  /// separator tree. Only the scheduled drivers route across devices, so
  /// the deferred fold owns the clock. Per-(src,dst) totals accumulate
  /// for FactorStats::per_link.
  void account_cross_device(index_t src, index_t dst, double entries) {
    const double bytes = entries * static_cast<double>(sizeof(double));
    const auto& m = dev.model();
    const double t =
        m.links.empty()
            ? m.d2h_seconds(bytes) + m.h2d_seconds(bytes)
            : m.p2p_seconds(static_cast<int>(src), static_cast<int>(dst),
                            bytes);
    std::lock_guard<std::mutex> lk(account_mu_);
    deferred_host_seconds_ += t;
    cross_device_assembly_seconds += t;
    cross_device_transfer_bytes += static_cast<std::size_t>(bytes);
    num_cross_device_transfers++;
    const std::size_t a = src < 0 ? 0 : static_cast<std::size_t>(src) % ndev;
    const std::size_t b = dst < 0 ? 0 : static_cast<std::size_t>(dst) % ndev;
    LinkAccum& acc = link_accum_[a * ndev + b];
    acc.bytes += static_cast<std::size_t>(bytes);
    acc.seconds += t;
    acc.transfers++;
  }

  /// Snapshot of the per-(src,dst) cross-device traffic, one row per
  /// pair that carried any, sorted by (src, dst) — FactorStats::per_link.
  std::vector<LinkTransfer> per_link_transfers() {
    std::lock_guard<std::mutex> lk(account_mu_);
    std::vector<LinkTransfer> out;
    for (std::size_t a = 0; a < ndev; ++a) {
      for (std::size_t b = 0; b < ndev; ++b) {
        const LinkAccum& acc = link_accum_[a * ndev + b];
        if (acc.transfers == 0) continue;
        LinkTransfer lt;
        lt.src = static_cast<int>(a);
        lt.dst = static_cast<int>(b);
        lt.bytes = acc.bytes;
        lt.seconds = acc.seconds;
        lt.transfers = acc.transfers;
        out.push_back(lt);
      }
    }
    return out;
  }

  void count_fused_launch() {
    std::lock_guard<std::mutex> lk(account_mu_);
    fused_device_launches++;
  }

  /// Folds the modeled time of scheduler-executed CPU work into the
  /// device host clock. Call after the task graph has drained.
  void flush_deferred() {
    dev.advance_host(deferred_host_seconds_);
    deferred_host_seconds_ = 0.0;
  }

 private:
  /// Charges one closed batch: the gathered member kernels as a single
  /// fused batched call group, the gathered scatter-adds as a single
  /// fused assembly region. Both sums are order-independent, so the
  /// modeled time never depends on worker interleaving. Only the
  /// scheduled drivers run batches, so the deferred fold owns the clock.
  void charge_batched(const BatchAccum& acc) {
    double blas = 0.0;
    if (acc.calls > 0) {
      blas = dev.model().cpu_batched_kernel_seconds_best(acc.flops,
                                                         acc.calls);
    }
    const double asm_t = dev.model().assembly_seconds(acc.entries);
    std::lock_guard<std::mutex> lk(account_mu_);
    deferred_host_seconds_ += blas + asm_t;
    cpu_blas_seconds += blas;
    assembly_seconds += asm_t;
    num_cpu_blas_calls += acc.calls;
  }

  static inline thread_local BatchAccum* tl_batch_ = nullptr;

  /// One (src,dst) pair's running cross-device traffic (ndev×ndev,
  /// row-major; guarded by account_mu_).
  struct LinkAccum {
    std::size_t bytes = 0;
    double seconds = 0.0;
    std::size_t transfers = 0;
  };
  std::vector<LinkAccum> link_accum_;

  std::mutex account_mu_;
  double deferred_host_seconds_ = 0.0;
  std::atomic<std::size_t> active_tasks_{0};
};

template <class Fn>
std::size_t PlanExecutor::add(const PlanNode& n, Fn fn,
                              std::size_t resource) {
  return sched_->add_task(
      n.priority,
      [ctx = ctx_, fn = std::move(fn)](std::size_t) {
        FactorContext::TaskScope scope(*ctx);
        fn();
      },
      resource, n.queue);
}

/// Factors the supernode panel on the CPU (DPOTRF on the diagonal block,
/// DTRSM on the rectangular part). Throws NotPositiveDefinite with the
/// PERMUTED global column index.
void cpu_factor_panel(FactorContext& ctx, index_t s);

/// RL assembly: adds the host update matrix `u` (below × below,
/// ld = below, holding MINUS the outer product) into the ancestors of s.
/// Returns the number of entries scattered (for the assembly model).
double rl_assemble(FactorContext& ctx, index_t s, const double* u);

/// RL / RLB / left-looking drivers (rl.cpp, rlb.cpp, left_looking.cpp).
/// Each dispatches to a sequential loop (kCpuSerial, kGpuOnly, or a
/// single worker) or the etree task scheduler (ctx.scheduled).
void run_rl(FactorContext& ctx);
void run_rlb(FactorContext& ctx);
void run_left_looking(FactorContext& ctx);

}  // namespace spchol::detail
