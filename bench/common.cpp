#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "spchol/support/timer.hpp"

namespace spchol::bench {

PreparedMatrix prepare(const DatasetEntry& entry) {
  PreparedMatrix m;
  m.entry = &entry;
  WallTimer t;
  m.a = entry.make();
  const Permutation fill =
      compute_ordering(m.a, OrderingOptions{}, &m.ord);
  m.symb = SymbolicFactor::analyze(m.a, fill, AnalyzeOptions{});
  m.analyze_wall = t.seconds();
  return m;
}

std::vector<const DatasetEntry*> bench_set() {
  std::vector<const DatasetEntry*> set;
  const bool quick = std::getenv("SPCHOL_BENCH_QUICK") != nullptr;
  const std::vector<std::string> quick_names = {
      "CurlCurl_2", "PFlow_742",  "bone010",   "Serena",
      "Bump_2911",  "nlpkkt120", "Queen_4147"};
  for (const auto& e : dataset()) {
    if (!e.paper_matrix) continue;  // no paper row to reproduce
    if (quick) {
      bool keep = false;
      for (const auto& q : quick_names) keep = keep || q == e.name;
      if (!keep) continue;
    }
    set.push_back(&e);
  }
  return set;
}

RunResult run_factor(const PreparedMatrix& m, const FactorOptions& opts) {
  RunResult r;
  try {
    const CholeskyFactor f = CholeskyFactor::factorize(m.a, m.symb, opts);
    r.stats = f.stats();
    r.seconds = r.stats.modeled_seconds;
  } catch (const gpu::DeviceOutOfMemory&) {
    r.out_of_memory = true;
    r.seconds = std::numeric_limits<double>::quiet_NaN();
  }
  return r;
}

double best_cpu_seconds(const PreparedMatrix& m) {
  FactorOptions o;
  o.exec = Execution::kCpuParallel;
  o.method = Method::kRL;
  const double rl = run_factor(m, o).seconds;
  o.method = Method::kRLB;
  const double rlb = run_factor(m, o).seconds;
  return std::min(rl, rlb);
}

FactorOptions gpu_options(Method method, RlbVariant variant, Execution exec,
                          offset_t thr_rl, offset_t thr_rlb) {
  FactorOptions o;
  o.method = method;
  o.exec = exec;
  o.rlb_variant = variant;
  o.gpu_threshold_rl = thr_rl;
  o.gpu_threshold_rlb = thr_rlb;
  o.device.memory_bytes = kDatasetDeviceBytes;
  return o;
}

void print_rule(char c, int width) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

namespace {

/// `s` as a JSON string literal: quotes, backslashes and control characters
/// escaped.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// `v` as a JSON number, or null when it has none (NaN for the OOM rows,
/// ±inf): JSON has no token for non-finite values.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void JsonReport::row(
    const std::string& section, const std::string& matrix,
    std::initializer_list<std::pair<const char*, double>> fields,
    std::initializer_list<std::pair<const char*, const char*>> text) {
  std::string r = "{\"section\": " + json_string(section) +
                  ", \"matrix\": " + json_string(matrix);
  for (const auto& [key, value] : fields) {
    r += ", " + json_string(key) + ": " + json_number(value);
  }
  for (const auto& [key, value] : text) {
    r += ", " + json_string(key) + ": " + json_string(value);
  }
  r += "}";
  rows_.push_back(std::move(r));
}

void JsonReport::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"bench\": %s, \"rows\": [\n",
               json_string(bench_).c_str());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                 i + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace spchol::bench
