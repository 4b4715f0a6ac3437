// Shared infrastructure for the table/figure reproduction benches.
#pragma once

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "spchol/spchol.hpp"

namespace spchol::bench {

/// Simulated device memory for the analog dataset. The paper's 40 GB A100
/// stands in a specific relation to its test set: nlpkkt120's full update
/// matrix does not fit (Table I reports it as unrunnable under RL) while
/// every other matrix does. The analogs are ~30x smaller, so the scaled
/// device keeps that relation: RL on the nlpkkt120 analog needs ~145 MB,
/// RLB v2 needs ~125 MB, and every other matrix needs at most ~110 MB.
inline constexpr std::size_t kDatasetDeviceBytes = 135ull << 20;  // 135 MiB

/// Paper-default thresholds scaled to the analog dataset (see
/// FactorOptions), restated here so benches can sweep around them.
inline constexpr offset_t kThresholdRl = 60'000;
inline constexpr offset_t kThresholdRlb = 75'000;

struct PreparedMatrix {
  const DatasetEntry* entry = nullptr;
  CscMatrix a;
  SymbolicFactor symb;
  OrderingStats ord;  ///< ordering-stage stats (method, timers, DAG)
  double analyze_wall = 0.0;
};

/// Generates the analog and runs the paper's analysis pipeline (nested
/// dissection, 25% merge cap, partition refinement).
PreparedMatrix prepare(const DatasetEntry& entry);

/// The matrices to run: the paper's 21, or a 7-matrix subset when the
/// environment variable SPCHOL_BENCH_QUICK is set (for iterating on the
/// harness). Non-paper dataset entries (paper_matrix == false) are
/// excluded; benches reach them via dataset_entry() where relevant.
std::vector<const DatasetEntry*> bench_set();

struct RunResult {
  double seconds = 0.0;  ///< modeled runtime; NaN when out_of_memory
  bool out_of_memory = false;
  FactorStats stats{};
};

/// Runs one numeric factorization, catching device OOM (the nlpkkt120/RL
/// case) and returning it as a result instead of propagating.
RunResult run_factor(const PreparedMatrix& m, const FactorOptions& opts);

/// The paper's baseline: best CPU-only time over {RL, RLB} (each already
/// modeled as the best over the MKL thread sweep).
double best_cpu_seconds(const PreparedMatrix& m);

/// GPU-accelerated options with the dataset device capacity.
FactorOptions gpu_options(Method method, RlbVariant variant,
                          Execution exec = Execution::kGpuHybrid,
                          offset_t thr_rl = kThresholdRl,
                          offset_t thr_rlb = kThresholdRlb);

/// Prints "name  value" aligned table cells.
void print_rule(char c = '-', int width = 100);

/// Machine-readable bench output: rows of {section, matrix, numeric
/// fields} accumulated while the human-readable tables print, written as
/// one JSON document ({"bench": ..., "rows": [...]}) so CI can track the
/// modeled/real seconds and speedups across PRs.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  /// Appends one row; non-finite values (NaN for the OOM rows, ±inf) are
  /// emitted as null, and every key and string is JSON-escaped. The
  /// optional `text` fields are emitted as JSON strings — used for
  /// explicit markers like {"skipped", "<reason>"} so downstream tooling
  /// never has to interpret a bare null.
  void row(const std::string& section, const std::string& matrix,
           std::initializer_list<std::pair<const char*, double>> fields,
           std::initializer_list<std::pair<const char*, const char*>> text =
               {});

  /// Writes the document to `path` (overwriting).
  void write(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<std::string> rows_;
};

}  // namespace spchol::bench
