// COO / CSC / MatrixMarket unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <filesystem>

#include "spchol/matrix/coo.hpp"
#include "spchol/matrix/generators.hpp"
#include "spchol/matrix/matrix_market.hpp"

namespace spchol {
namespace {

TEST(Coo, ToCscSortsAndSumsDuplicates) {
  CooMatrix coo(3, 3);
  coo.add(2, 0, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(2, 0, 0.5);  // duplicate
  coo.add(1, 2, -1.0);
  const CscMatrix a = coo.to_csc();
  EXPECT_EQ(a.nnz(), 3);
  ASSERT_EQ(a.col_rows(0).size(), 2u);
  EXPECT_EQ(a.col_rows(0)[0], 0);
  EXPECT_EQ(a.col_rows(0)[1], 2);
  EXPECT_DOUBLE_EQ(a.col_values(0)[1], 1.5);
  EXPECT_EQ(a.col_rows(1).size(), 0u);
  EXPECT_EQ(a.col_rows(2)[0], 1);
}

TEST(Coo, RejectsOutOfRange) {
  CooMatrix coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0), Error);
  EXPECT_THROW(coo.add(0, -1, 1.0), Error);
}

TEST(Csc, ValidatingConstructorRejectsBadInput) {
  // row indices not increasing
  EXPECT_THROW(CscMatrix(2, 2, {0, 2, 2}, {1, 0}, {1.0, 1.0}), Error);
  // colptr not monotone
  EXPECT_THROW(CscMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0, 1.0}), Error);
  // row out of range
  EXPECT_THROW(CscMatrix(2, 2, {0, 1, 2}, {0, 2}, {1.0, 1.0}), Error);
  // nnz mismatch
  EXPECT_THROW(CscMatrix(2, 2, {0, 1, 3}, {0, 1}, {1.0, 1.0}), Error);
  // A colptr entry past nnz, caught before any row index is read.
  EXPECT_THROW(CscMatrix(3, 2, {0, 5, 2}, {0, 1}, {1.0, 2.0}), Error);
}

TEST(Csc, Identity) {
  const CscMatrix i = CscMatrix::identity(4);
  EXPECT_EQ(i.nnz(), 4);
  for (index_t j = 0; j < 4; ++j) {
    EXPECT_EQ(i.col_rows(j)[0], j);
    EXPECT_DOUBLE_EQ(i.col_values(j)[0], 1.0);
  }
}

TEST(Csc, TransposeTwiceIsIdentity) {
  const CscMatrix a = random_spd(40, 3, 5);
  const CscMatrix att = a.transpose().transpose();
  EXPECT_EQ(att.colptr(), a.colptr());
  EXPECT_EQ(att.rowind(), a.rowind());
  EXPECT_EQ(att.values(), a.values());
}

TEST(Csc, FullFromLowerIsStructurallySymmetric) {
  const CscMatrix a = grid2d_5pt(5, 4);
  const CscMatrix full = a.full_from_lower();
  EXPECT_TRUE(full.structurally_symmetric());
  EXPECT_EQ(full.nnz(), 2 * a.nnz() - a.cols());
  EXPECT_EQ(full.lower().nnz(), a.nnz());
}

TEST(Csc, SymLowerMatvecMatchesDense) {
  const CscMatrix a = random_spd(30, 4, 9);
  std::vector<double> x(30), y(30);
  for (index_t i = 0; i < 30; ++i) x[i] = std::sin(i + 1.0);
  a.sym_lower_matvec(x, y);
  // Dense reference.
  const CscMatrix full = a.full_from_lower();
  std::vector<double> yref(30, 0.0);
  for (index_t j = 0; j < 30; ++j) {
    const auto rows = full.col_rows(j);
    const auto vals = full.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      yref[rows[k]] += vals[k] * x[j];
    }
  }
  for (index_t i = 0; i < 30; ++i) EXPECT_NEAR(y[i], yref[i], 1e-14);
}

TEST(Csc, PermutedSymLowerPreservesEntries) {
  const CscMatrix a = random_spd(25, 3, 11);
  std::vector<index_t> p(25);
  for (index_t i = 0; i < 25; ++i) p[i] = (i * 7 + 3) % 25;
  const Permutation perm{p};
  const CscMatrix b = a.permuted_sym_lower(perm);
  EXPECT_EQ(b.nnz(), a.nnz());
  // B[k,l] == A[perm[k], perm[l]] — check via matvec equivalence:
  // B·(Px) = P·(A x).
  std::vector<double> x(25), ax(25), px(25), bpx(25);
  for (index_t i = 0; i < 25; ++i) x[i] = std::cos(i * 0.7);
  a.sym_lower_matvec(x, ax);
  for (index_t k = 0; k < 25; ++k) px[k] = x[perm.new_to_old(k)];
  b.sym_lower_matvec(px, bpx);
  for (index_t k = 0; k < 25; ++k) {
    EXPECT_NEAR(bpx[k], ax[perm.new_to_old(k)], 1e-14);
  }
}

TEST(Csc, MaxAbsDiff) {
  const CscMatrix a = grid2d_5pt(4, 4);
  CscMatrix b = a;
  EXPECT_DOUBLE_EQ(CscMatrix::max_abs_diff(a, b), 0.0);
  b.mutable_values()[0] += 0.25;
  EXPECT_DOUBLE_EQ(CscMatrix::max_abs_diff(a, b), 0.25);
}

class MatrixMarketIo : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() /
                       "spchol_mm_test.mtx")
                          .string();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(MatrixMarketIo, RoundTripSymmetric) {
  const CscMatrix a = random_spd(40, 4, 17);
  write_matrix_market_sym_lower(path_, a);
  const CscMatrix b = read_matrix_market_sym_lower(path_);
  EXPECT_EQ(a.colptr(), b.colptr());
  EXPECT_EQ(a.rowind(), b.rowind());
  EXPECT_LT(CscMatrix::max_abs_diff(a, b), 1e-14);
}

TEST_F(MatrixMarketIo, ReadsGeneralAndPattern) {
  {
    std::ofstream out(path_);
    out << "%%MatrixMarket matrix coordinate real general\n"
        << "% comment line\n"
        << "3 4 3\n"
        << "1 1 2.5\n"
        << "3 2 -1\n"
        << "2 4 7\n";
  }
  const MatrixMarketData d = read_matrix_market(path_);
  EXPECT_FALSE(d.symmetric);
  EXPECT_EQ(d.matrix.rows(), 3);
  EXPECT_EQ(d.matrix.cols(), 4);
  EXPECT_DOUBLE_EQ(d.matrix.col_values(0)[0], 2.5);
  {
    std::ofstream out(path_);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
        << "3 3 2\n"
        << "2 1\n"
        << "3 3\n";
  }
  const MatrixMarketData p = read_matrix_market(path_);
  EXPECT_TRUE(p.symmetric);
  EXPECT_EQ(p.matrix.nnz(), 2);
  EXPECT_DOUBLE_EQ(p.matrix.col_values(0)[0], 1.0);
}

TEST_F(MatrixMarketIo, RejectsMalformed) {
  {
    std::ofstream out(path_);
    out << "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
  }
  EXPECT_THROW(read_matrix_market(path_), InvalidArgument);
  {
    std::ofstream out(path_);
    out << "%%MatrixMarket matrix coordinate real symmetric\n"
        << "2 2 1\n"
        << "5 1 3.0\n";  // out of range
  }
  EXPECT_THROW(read_matrix_market(path_), InvalidArgument);
  EXPECT_THROW(read_matrix_market("/nonexistent/file.mtx"), InvalidArgument);
}

TEST_F(MatrixMarketIo, RejectsDimensionsAboveIndexRange) {
  for (const char* size : {"2147483648 1 0\n", "1 4294967296 0\n",
                           "4294967297 4294967297 1\n"}) {
    {
      std::ofstream out(path_);
      out << "%%MatrixMarket matrix coordinate real general\n"
          << size << "1 1 1.0\n";
    }
    EXPECT_THROW(read_matrix_market(path_), InvalidArgument) << size;
  }
  {
    std::ofstream out(path_);
    out << "%%MatrixMarket matrix coordinate real general\n"
        << "2147483647 1 1\n1 1 1.0\n";
  }
  EXPECT_EQ(read_matrix_market(path_).matrix.rows(), 2147483647);
}

TEST_F(MatrixMarketIo, HugeClaimedNnzDoesNotDriveTheReservation) {
  // 10^15 entries claimed for a 2×2 matrix: the reservation is capped by
  // the 4 positions, so the reader reaches its truncation check instead of
  // failing to allocate petabytes.
  {
    std::ofstream out(path_);
    out << "%%MatrixMarket matrix coordinate real general\n"
        << "2 2 1000000000000000\n1 1 1.0\n";
  }
  EXPECT_THROW(read_matrix_market(path_), InvalidArgument);
}

TEST_F(MatrixMarketIo, SymLowerRequiresSymmetric) {
  {
    std::ofstream out(path_);
    out << "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n";
  }
  EXPECT_THROW(read_matrix_market_sym_lower(path_), InvalidArgument);
}

}  // namespace
}  // namespace spchol
