// Multi-RHS solves and iterative refinement.
#include <gtest/gtest.h>

#include "spchol/support/rng.hpp"
#include "test_util.hpp"

namespace spchol {
namespace {

TEST(SolveMulti, MatchesPerColumnSolve) {
  const CscMatrix a = grid3d_7pt(6, 5, 4);
  const index_t n = a.cols();
  const index_t nrhs = 5;
  CholeskySolver solver;
  solver.factorize(a);

  Rng rng(3);
  std::vector<double> b(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : b) v = rng.uniform(-2.0, 2.0);
  std::vector<double> x_multi(b.size());
  solver.factor().solve_multi(b, x_multi, nrhs);

  for (index_t q = 0; q < nrhs; ++q) {
    std::vector<double> xq(static_cast<std::size_t>(n));
    solver.factor().solve(
        std::span<const double>(b.data() + static_cast<std::size_t>(q) * n,
                                static_cast<std::size_t>(n)),
        xq);
    for (index_t i = 0; i < n; ++i) {
      EXPECT_EQ(x_multi[static_cast<std::size_t>(q) * n + i], xq[i])
          << "rhs " << q << " row " << i;
    }
  }
}

TEST(SolveMulti, ZeroRhsIsNoOp) {
  const CscMatrix a = grid2d_5pt(4, 4);
  CholeskySolver solver;
  solver.factorize(a);
  std::vector<double> empty;
  solver.factor().solve_multi(empty, empty, 0);
}

TEST(SolveMulti, SizeMismatchThrows) {
  const CscMatrix a = grid2d_5pt(4, 4);
  CholeskySolver solver;
  solver.factorize(a);
  std::vector<double> b(static_cast<std::size_t>(a.cols()) * 2);
  std::vector<double> x(static_cast<std::size_t>(a.cols()) * 3);
  EXPECT_THROW(solver.factor().solve_multi(b, x, 2), Error);
}

TEST(SolveMulti, AccurateOnManyRhs) {
  const CscMatrix a = random_spd(200, 5, 7);
  const index_t n = a.cols(), nrhs = 8;
  CholeskySolver solver;
  solver.factorize(a);
  // X_true columns are shifted ramps; B = A X.
  std::vector<double> x_true(static_cast<std::size_t>(n) * nrhs);
  std::vector<double> b(x_true.size());
  for (index_t q = 0; q < nrhs; ++q) {
    for (index_t i = 0; i < n; ++i) {
      x_true[static_cast<std::size_t>(q) * n + i] =
          std::sin(0.01 * (i + 17 * q));
    }
    a.sym_lower_matvec(
        std::span<const double>(
            x_true.data() + static_cast<std::size_t>(q) * n,
            static_cast<std::size_t>(n)),
        std::span<double>(b.data() + static_cast<std::size_t>(q) * n,
                          static_cast<std::size_t>(n)));
  }
  std::vector<double> x(b.size());
  solver.factor().solve_multi(b, x, nrhs);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-10);
  }
}

TEST(SolveRefined, NeverWorseThanPlainSolve) {
  const CscMatrix a = grid3d_wide(5, 5, 5, 2);
  const index_t n = a.cols();
  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.sym_lower_matvec(x_true, b);
  CholeskySolver solver;
  solver.factorize(a);
  std::vector<double> x_plain(static_cast<std::size_t>(n));
  solver.factor().solve(b, x_plain);
  const double plain = relative_residual(a, x_plain, b);
  std::vector<double> x_ref(static_cast<std::size_t>(n));
  const double refined = solver.factor().solve_refined(a, b, x_ref, 3);
  EXPECT_LE(refined, plain + 1e-18);
  EXPECT_LT(refined, 1e-14);
}

TEST(SolveRefined, ReportsResidualConsistently) {
  const CscMatrix a = random_spd(150, 4, 11);
  const index_t n = a.cols();
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  CholeskySolver solver;
  solver.factorize(a);
  std::vector<double> x(static_cast<std::size_t>(n));
  const double reported = solver.factor().solve_refined(a, b, x, 5);
  EXPECT_EQ(reported, relative_residual(a, x, b));
}

TEST(SolveRefined, ZeroIterationsIsPlainSolve) {
  const CscMatrix a = grid2d_5pt(8, 8);
  const index_t n = a.cols();
  std::vector<double> b(static_cast<std::size_t>(n), 2.0);
  CholeskySolver solver;
  solver.factorize(a);
  std::vector<double> x0(static_cast<std::size_t>(n));
  std::vector<double> x1(static_cast<std::size_t>(n));
  solver.factor().solve(b, x0);
  solver.factor().solve_refined(a, b, x1, 0);
  EXPECT_EQ(x0, x1);
}

}  // namespace
}  // namespace spchol
