// Table I reproduction: GPU-accelerated RL runtimes, speedups over the
// best CPU-only method (best of RL/RLB over the MKL thread sweep), and
// the number of supernodes computed on the GPU, for all 21 matrices.
//
// Expected shape (not absolute numbers — the substrate is a simulator):
//  * a speedup > 1 for every matrix,
//  * speedups growing with matrix size, smallest on the many-small-
//    supernode matrices (PFlow_742 class), largest on the big vector-
//    valued problems (Bump_2911 / Queen_4147 class, paper: up to 4.47x),
//  * few supernodes on the GPU relative to the total,
//  * nlpkkt120 unrunnable: its update matrix exceeds device memory.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

using namespace spchol;
using namespace spchol::bench;

int main() {
  JsonReport report("table1");
  std::printf(
      "Table I: GPU accelerated RL (threshold %lld entries, device %zu MiB)\n",
      static_cast<long long>(kThresholdRl),
      kDatasetDeviceBytes >> 20);
  print_rule('=');
  std::printf(
      "%-17s %10s %9s %8s %8s | %9s %8s | %8s %8s | %9s %8s\n",
      "matrix", "n", "nnz(L)", "order", "analyze", "runtime", "speedup",
      "sn(GPU)", "sn(tot)", "paper(s)", "paperSpd");
  print_rule();

  // Kept for the scaling section below (Queen_4147 is the largest
  // generator matrix) so its analysis is not repeated.
  PreparedMatrix largest;
  // Derived task grain per matrix: the CPU plan's tasks and batches.
  struct Grain {
    std::string name;
    index_t supernodes;
    std::size_t tasks;
    index_t batches;
    index_t batched;
  };
  std::vector<Grain> grains;
  for (const DatasetEntry* e : bench_set()) {
    PreparedMatrix m = prepare(*e);
    {
      const ExecutionPlan plan = ExecutionPlan::build(m.symb, {}, {});
      grains.push_back({e->name, m.symb.num_supernodes(),
                        plan.nodes().size(), plan.batches_formed(),
                        plan.supernodes_batched()});
    }
    const double cpu_best = best_cpu_seconds(m);
    const RunResult gpu =
        run_factor(m, gpu_options(Method::kRL, RlbVariant::kStreamed));
    if (gpu.out_of_memory) {
      std::printf(
          "%-17s %10d %9.2fM %8.4f %8.4f | %9s %8s | %8s %8d | %9s "
          "%8s\n",
          e->name.c_str(), m.a.cols(),
          static_cast<double>(m.symb.factor_nnz()) / 1e6,
          m.ord.total_seconds, m.symb.stats().total_seconds,
          "OOM", "-", "-", m.symb.num_supernodes(),
          e->paper_rl.out_of_memory ? "OOM" : "?",
          e->paper_rl.out_of_memory ? "-" : "?");
      // Instead of a bare-null modeled_seconds the row carries an
      // explicit machine-readable reason, so CI tooling distinguishes
      // "skipped by design" from "field went missing".
      report.row("table1", e->name,
                 {{"cpu_best_seconds", cpu_best},
                  {"order_seconds", m.ord.total_seconds},
                  {"analyze_seconds", m.symb.stats().total_seconds}},
                 {{"skipped",
                   "device out of memory: RL update matrix exceeds the "
                   "135 MiB analog device (paper Table I reports "
                   "nlpkkt120 unrunnable under RL)"}});
      continue;
    }
    std::printf(
        "%-17s %10d %9.2fM %8.4f %8.4f | %9.4f %7.2fx | %8d %8d | "
        "%9.3f %7.2fx\n",
        e->name.c_str(), m.a.cols(),
        static_cast<double>(m.symb.factor_nnz()) / 1e6,
        m.ord.total_seconds, m.symb.stats().total_seconds, gpu.seconds,
        cpu_best / gpu.seconds, gpu.stats.supernodes_on_gpu,
        m.symb.num_supernodes(),
        e->paper_rl.time_s, e->paper_rl.speedup);
    report.row("table1", e->name,
               {{"modeled_seconds", gpu.seconds},
                {"cpu_best_seconds", cpu_best},
                {"speedup", cpu_best / gpu.seconds},
                {"order_seconds", m.ord.total_seconds},
                {"analyze_seconds", m.symb.stats().total_seconds}});
    if (e->name == "Queen_4147") largest = std::move(m);
  }
  print_rule();
  std::printf(
      "runtime/speedup: modeled on the simulated device (README, Simulated "
      "device);\norder/analyze: REAL wall seconds of compute_ordering and "
      "SymbolicFactor::analyze (serial);\npaper columns: Table I "
      "as printed.\n");

  // --- derived task grain: one line per matrix ---------------------------
  // The plan picks its own grain from the pattern (exec_plan.cpp): whole
  // subtrees of small supernodes run as one BATCH task. CPU plan shape
  // (no GPU marks), identical at every worker count.
  std::printf("\nExecutionPlan derived grain (RL, CPU plan)\n");
  print_rule('=');
  std::printf("%-17s %10s %10s %9s %9s\n", "matrix", "sn", "tasks",
              "batches", "snBatch");
  print_rule();
  for (const Grain& g : grains) {
    std::printf("%-17s %10d %10zu %9d %9d\n", g.name.c_str(), g.supernodes,
                g.tasks, g.batches, g.batched);
    report.row("grain", g.name,
               {{"supernodes", static_cast<double>(g.supernodes)},
                {"tasks", static_cast<double>(g.tasks)},
                {"batches", static_cast<double>(g.batches)},
                {"supernodes_batched", static_cast<double>(g.batched)}});
  }
  print_rule();

  // --- CPU parallel scaling: REAL wall clock, not the model -------------
  // kCpuSerial executes on one thread; kCpuParallel dispatches supernode
  // tasks onto real worker threads via the etree task scheduler. On the
  // largest generator matrix the 8-thread run should report >= 2x on
  // multicore hardware (speedup is capped by the available cores).
  std::printf("\nCPU parallel scaling (RL, wall clock, largest matrix)\n");
  print_rule('=');
  if (largest.entry == nullptr) {
    largest = prepare(dataset_entry("Queen_4147"));
  }
  const PreparedMatrix& big = largest;
  FactorOptions serial_opts;
  serial_opts.method = Method::kRL;
  serial_opts.exec = Execution::kCpuSerial;
  const RunResult serial = run_factor(big, serial_opts);
  std::printf("%-17s %10s %12s %10s %9s %8s %7s\n", "matrix", "threads",
              "wall(s)", "speedup", "tasks", "readyQ", "used");
  std::printf("%-17s %10d %12.3f %9.2fx %9s %8s %7s\n",
              big.entry->name.c_str(), 1, serial.stats.wall_seconds, 1.0,
              "-", "-", "-");
  for (const int threads : {2, 4, 8}) {
    FactorOptions par_opts = serial_opts;
    par_opts.exec = Execution::kCpuParallel;
    par_opts.cpu_workers = threads;
    const RunResult par = run_factor(big, par_opts);
    std::printf("%-17s %10d %12.3f %9.2fx %9zu %8zu %7zu\n",
                big.entry->name.c_str(), threads, par.stats.wall_seconds,
                serial.stats.wall_seconds / par.stats.wall_seconds,
                par.stats.scheduler_tasks, par.stats.scheduler_max_ready,
                par.stats.scheduler_threads_used);
  }
  print_rule();

  // --- ordering scaling: the ND task DAG ---------------------------------
  // Worker scaling of compute_ordering on the nlpkkt80 analog. The nested-
  // dissection recursion runs as dynamically-spawned piece tasks on the
  // task scheduler (each bisection's A/B sides and each connected
  // component recurse independently; leaf pieces RCM-order in parallel).
  // "modeled" replays the measured piece-task durations through the
  // scheduler's greedy list schedule (spawn edges included) behind the
  // serial GraphStage prefix — core-count-independent like the device
  // model; "speedup" = task seconds / modeled seconds. The
  // permutation is identical across all rows (asserted in
  // test_ordering_parallel).
  const DatasetEntry& nlp = dataset_entry("nlpkkt80");
  const CscMatrix na = nlp.make();
  std::printf("\nOrdering scaling (ND task DAG, nlpkkt80 analog)\n");
  print_rule('=');
  std::printf("%-17s %10s %10s %10s %10s %9s %7s %7s\n", "matrix",
              "workers", "wall(s)", "task(s)", "modeled", "speedup",
              "tasks", "leaves");
  for (const int workers : {1, 2, 4, 8}) {
    OrderingOptions oo;
    oo.workers = workers;
    OrderingStats st;
    compute_ordering(na, oo, &st);
    std::printf("%-17s %10d %10.4f %10.4f %10.4f %8.2fx %7zu %7zu\n",
                nlp.name.c_str(), workers, st.total_seconds,
                st.task_seconds, st.modeled_parallel_seconds,
                st.task_seconds / st.modeled_parallel_seconds,
                st.tasks_run, st.leaves);
  }
  print_rule();

  report.write("BENCH_table1.json");
  return 0;
}
