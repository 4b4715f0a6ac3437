// Shared helpers for the spchol test suite.
#pragma once

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <optional>
#include <system_error>
#include <thread>
#include <vector>

#include "spchol/spchol.hpp"

namespace spchol::testing {

/// Threads of this process (the entries of /proc/self/task), or nullopt
/// where there is no /proc/self/task.
inline std::optional<std::size_t> process_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator{}));
}

/// process_threads() once a first thread has come and gone: a sanitizer
/// runtime starts its helper thread then, and keeps it. Taken before
/// main() (gtest starts no thread), every thread beyond it is spchol's.
inline std::optional<std::size_t> baseline_threads() {
  std::thread([] {}).join();
  return process_threads();
}

/// Dense column-major copy of a symmetric matrix given its lower triangle.
inline std::vector<double> dense_from_sym_lower(const CscMatrix& a) {
  const index_t n = a.cols();
  std::vector<double> d(static_cast<std::size_t>(n) * n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      d[rows[k] + static_cast<std::size_t>(j) * n] = vals[k];
      d[j + static_cast<std::size_t>(rows[k]) * n] = vals[k];
    }
  }
  return d;
}

/// Reference assembly of PAPᵀ into zero-filled supernodal factor storage,
/// built the direct way: permuted_sym_lower (a COO round trip that sums
/// a mirrored (i,j)/(j,i) pair) and then a two-pointer scatter of every
/// permuted column into its supernode panel. Throws spchol::Error on an
/// entry outside the symbolic structure.
inline std::vector<double> reference_assembly(const CscMatrix& a_lower,
                                              const SymbolicFactor& symb) {
  std::vector<double> v(static_cast<std::size_t>(symb.factor_values()), 0.0);
  const CscMatrix ap = a_lower.permuted_sym_lower(symb.permutation());
  for (index_t s = 0; s < symb.num_supernodes(); ++s) {
    const auto rows = symb.sn_rows(s);
    const auto r = static_cast<offset_t>(rows.size());
    double* panel = v.data() + symb.sn_values_offset(s);
    for (index_t j = symb.sn_begin(s); j < symb.sn_end(s); ++j) {
      const offset_t jl = j - symb.sn_begin(s);
      const auto arows = ap.col_rows(j);
      const auto avals = ap.col_values(j);
      std::size_t t = 0;
      for (std::size_t k = 0; k < arows.size(); ++k) {
        while (t < rows.size() && rows[t] < arows[k]) ++t;
        SPCHOL_CHECK(t < rows.size() && rows[t] == arows[k],
                     "A entry outside the symbolic structure");
        panel[jl * r + static_cast<offset_t>(t)] = avals[k];
      }
    }
  }
  return v;
}

/// max |A - L·Lᵀ| where L is the factor in PERMUTED space and A is in the
/// ORIGINAL space (the factor's permutation is applied to A).
inline double factorization_error(const CscMatrix& a_lower,
                                  const CholeskyFactor& f) {
  const index_t n = a_lower.cols();
  const CscMatrix ap = a_lower.permuted_sym_lower(f.symbolic().permutation());
  const std::vector<double> ad = dense_from_sym_lower(ap);
  const CscMatrix l = f.to_csc_lower();
  // Dense L.
  std::vector<double> ld(static_cast<std::size_t>(n) * n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    const auto rows = l.col_rows(j);
    const auto vals = l.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      ld[rows[k] + static_cast<std::size_t>(j) * n] = vals[k];
    }
  }
  double err = 0.0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      double s = 0.0;
      for (index_t k = 0; k <= j; ++k) {
        s += ld[i + static_cast<std::size_t>(k) * n] *
             ld[j + static_cast<std::size_t>(k) * n];
      }
      err = std::max(err,
                     std::abs(s - ad[i + static_cast<std::size_t>(j) * n]));
    }
  }
  return err;
}

/// Solve-based end-to-end check: returns the relative residual of
/// A x = b with b = A·(1,2,3,...)/n.
inline double solve_residual(const CscMatrix& a_lower,
                             const CholeskyFactor& f) {
  const index_t n = a_lower.cols();
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x_true[i] = static_cast<double>(i + 1) / static_cast<double>(n);
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  a_lower.sym_lower_matvec(x_true, b);
  std::vector<double> x(static_cast<std::size_t>(n));
  f.solve(b, x);
  return relative_residual(a_lower, x, b);
}

/// The device capacity that fits exactly one slot of the pool a run
/// builds: `run(bytes)` factors on a fresh device of `bytes` and returns
/// its FactorStats. The pool builds its slots largest first and stops at
/// the first that does not fit, so capping the device one byte below a
/// run's peak drops at least the last slot; this ends at the peak of a
/// one-slot run.
template <class Run>
std::size_t one_slot_capacity(Run&& run) {
  FactorStats st = run(gpu::DeviceConfig{}.memory_bytes);
  while (st.gpu_stream_pairs > 1) st = run(st.device_peak_bytes - 1);
  return st.device_peak_bytes;
}

}  // namespace spchol::testing
