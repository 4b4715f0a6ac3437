#include "spchol/core/solver.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "spchol/core/internal.hpp"
#include "spchol/support/timer.hpp"

namespace spchol {

void validate(const SolverOptions& opts) {
  validate(opts.ordering_opts);
  validate(opts.analyze);
  validate(opts.factor);
  validate(opts.solve);
}

void CholeskySolver::analyze(const CscMatrix& a_lower) {
  validate(opts_);
  const WallTimer timer;
  WallTimer stage;
  OrderingStats ostats;
  const Permutation fill =
      compute_ordering(a_lower, opts_.ordering_opts, &ostats);
  const double ordering_seconds = stage.seconds();
  stage.reset();
  auto symb = std::make_shared<const SymbolicFactor>(
      SymbolicFactor::analyze(a_lower, fill, opts_.analyze));
  const double symbolic_seconds = stage.seconds();

  std::lock_guard<std::mutex> lk(mu_);
  symb_ = std::move(symb);
  factor_.reset();
  ordering_stats_ = ostats;
  ordering_seconds_ = ordering_seconds;
  symbolic_seconds_ = symbolic_seconds;
  factorize_seconds_ = 0.0;  // the old factor's timing no longer applies
  analyze_seconds_ = timer.seconds();
}

void CholeskySolver::factorize(const CscMatrix& a_lower) {
  std::shared_ptr<const SymbolicFactor> symb;
  {
    std::lock_guard<std::mutex> lk(mu_);
    symb = symb_;
  }
  if (!symb) {
    analyze(a_lower);
    std::lock_guard<std::mutex> lk(mu_);
    symb = symb_;
  }
  const WallTimer timer;
  auto factor = std::make_shared<const CholeskyFactor>(
      CholeskyFactor::factorize(a_lower, *symb, opts_.factor));
  // One FactorStats describes the whole pipeline: the numeric driver's
  // stats carry the symbolic phase already; graft the ordering stage on.
  FactorStats stats = factor->stats();

  std::lock_guard<std::mutex> lk(mu_);
  stats.ordering = ordering_stats_;
  factor_ = std::move(factor);
  stats_ = stats;
  factorize_seconds_ = timer.seconds();
  // A new factor starts a new solve epoch.
  solve_seconds_ = 0.0;
  solve_calls_ = 0;
  solve_tasks_ = 0;
  last_solve_ = SolveStats{};
}

std::vector<double> CholeskySolver::solve(std::span<const double> b) const {
  return solve_multi(b, 1);
}

std::vector<double> CholeskySolver::solve_multi(std::span<const double> b,
                                                index_t nrhs) const {
  std::shared_ptr<const CholeskyFactor> factor;
  {
    std::lock_guard<std::mutex> lk(mu_);
    factor = factor_;
  }
  SPCHOL_CHECK(factor != nullptr, "solve requires factorize()");
  std::vector<double> x(b.size());
  SolveStats sstats;
  factor->solve_multi(b, x, nrhs, opts_.solve, &sstats);

  std::lock_guard<std::mutex> lk(mu_);
  solve_seconds_ += sstats.seconds;
  solve_calls_++;
  solve_tasks_ += sstats.tasks;
  last_solve_ = sstats;
  return x;
}

std::vector<double> CholeskySolver::solve(const CscMatrix& a_lower,
                                          std::span<const double> b,
                                          SolverOptions opts) {
  CholeskySolver solver(std::move(opts));
  solver.factorize(a_lower);
  return solver.solve(b);
}

bool CholeskySolver::analyzed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return symb_ != nullptr;
}

bool CholeskySolver::factorized() const {
  std::lock_guard<std::mutex> lk(mu_);
  return factor_ != nullptr;
}

const SymbolicFactor& CholeskySolver::symbolic() const {
  std::lock_guard<std::mutex> lk(mu_);
  SPCHOL_CHECK(symb_ != nullptr, "analyze() has not been run");
  return *symb_;
}

const CholeskyFactor& CholeskySolver::factor() const {
  std::lock_guard<std::mutex> lk(mu_);
  SPCHOL_CHECK(factor_ != nullptr, "factorize() has not been run");
  return *factor_;
}

FactorStats CholeskySolver::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  SPCHOL_CHECK(factor_ != nullptr, "factorize() has not been run");
  FactorStats stats = stats_;
  // Graft the solve-side accumulators on, mirroring how factorize()
  // grafts the ordering stage.
  stats.solve_seconds = solve_seconds_;
  stats.solve_calls = solve_calls_;
  stats.solve_tasks = solve_tasks_;
  return stats;
}

double CholeskySolver::analyze_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return analyze_seconds_;
}

double CholeskySolver::ordering_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ordering_seconds_;
}

double CholeskySolver::symbolic_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return symbolic_seconds_;
}

double CholeskySolver::factorize_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return factorize_seconds_;
}

double CholeskySolver::pipeline_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return analyze_seconds_ + factorize_seconds_;
}

double CholeskySolver::solve_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return solve_seconds_;
}

SolveStats CholeskySolver::last_solve_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_solve_;
}

OrderingStats CholeskySolver::ordering_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ordering_stats_;
}

namespace detail {

double sym_lower_inf_norm(const CscMatrix& a_lower) {
  const index_t n = a_lower.cols();
  std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    const auto rows = a_lower.col_rows(j);
    const auto vals = a_lower.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      rowsum[rows[k]] += std::abs(vals[k]);
      if (rows[k] != j) rowsum[j] += std::abs(vals[k]);
    }
  }
  return n > 0 ? *std::max_element(rowsum.begin(), rowsum.end()) : 0.0;
}

double relative_residual(std::span<const double> ax,
                         std::span<const double> x,
                         std::span<const double> b, double anorm) {
  double rnorm = 0.0, bnorm = 0.0, xnorm = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    rnorm = std::max(rnorm, std::abs(b[i] - ax[i]));
    bnorm = std::max(bnorm, std::abs(b[i]));
    xnorm = std::max(xnorm, std::abs(x[i]));
  }
  const double denom = anorm * xnorm + bnorm;
  return denom > 0.0 ? rnorm / denom : rnorm;
}

}  // namespace detail

double relative_residual(const CscMatrix& a_lower, std::span<const double> x,
                         std::span<const double> b) {
  std::vector<double> ax(static_cast<std::size_t>(a_lower.cols()));
  a_lower.sym_lower_matvec(x, ax);
  return detail::relative_residual(ax, x, b,
                                   detail::sym_lower_inf_norm(a_lower));
}

}  // namespace spchol
