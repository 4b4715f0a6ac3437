#include "spchol/matrix/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "spchol/matrix/coo.hpp"

namespace spchol {

namespace {

std::string lower_copy(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

MatrixMarketData read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidArgument("cannot open MatrixMarket file: " + path);

  std::string line;
  if (!std::getline(in, line)) {
    throw InvalidArgument("empty MatrixMarket file: " + path);
  }
  std::istringstream header(lower_copy(line));
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%matrixmarket" || object != "matrix") {
    throw InvalidArgument("not a MatrixMarket matrix file: " + path);
  }
  if (format != "coordinate") {
    throw InvalidArgument("only coordinate format is supported: " + path);
  }
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer") {
    throw InvalidArgument("unsupported field type '" + field + "': " + path);
  }
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    throw InvalidArgument("unsupported symmetry '" + symmetry + "': " + path);
  }

  // Skip comments and blank lines, then read the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  long long rows = 0, cols = 0, nnz = 0;
  {
    constexpr long long kMaxDim = std::numeric_limits<index_t>::max();
    std::istringstream sz(line);
    if (!(sz >> rows >> cols >> nnz) || rows < 0 || cols < 0 || nnz < 0 ||
        rows > kMaxDim || cols > kMaxDim) {
      throw InvalidArgument("malformed size line: " + path);
    }
  }

  CooMatrix coo(static_cast<index_t>(rows), static_cast<index_t>(cols));
  // The header's nnz is untrusted: reserve no more entries than the matrix
  // has positions (rows·cols fits: both are below 2^31), nor more than
  // kMaxReserve; a longer valid entry list still grows the storage.
  constexpr long long kMaxReserve = 1LL << 24;
  coo.reserve(static_cast<std::size_t>(
      std::min({nnz, rows * cols, kMaxReserve})));
  for (long long k = 0; k < nnz; ++k) {
    long long i = 0, j = 0;
    double v = 1.0;
    if (!(in >> i >> j)) {
      throw InvalidArgument("truncated entry list: " + path);
    }
    if (!pattern && !(in >> v)) {
      throw InvalidArgument("truncated entry list: " + path);
    }
    if (i < 1 || i > rows || j < 1 || j > cols) {
      throw InvalidArgument("entry index out of range: " + path);
    }
    index_t r = static_cast<index_t>(i - 1), c = static_cast<index_t>(j - 1);
    if (symmetric && r < c) std::swap(r, c);  // normalize to lower
    coo.add(r, c, v);
  }
  return {coo.to_csc(), symmetric};
}

CscMatrix read_matrix_market_sym_lower(const std::string& path) {
  MatrixMarketData data = read_matrix_market(path);
  if (!data.symmetric) {
    throw InvalidArgument("expected a symmetric MatrixMarket file: " + path);
  }
  return std::move(data.matrix);
}

void write_matrix_market_sym_lower(const std::string& path,
                                   const CscMatrix& lower) {
  SPCHOL_CHECK(lower.square(), "symmetric write requires a square matrix");
  std::ofstream out(path);
  if (!out) throw InvalidArgument("cannot write MatrixMarket file: " + path);
  out << "%%MatrixMarket matrix coordinate real symmetric\n";
  out << lower.rows() << " " << lower.cols() << " " << lower.nnz() << "\n";
  out.precision(17);
  for (index_t j = 0; j < lower.cols(); ++j) {
    const auto rows = lower.col_rows(j);
    const auto vals = lower.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      SPCHOL_CHECK(rows[k] >= j, "matrix is not lower triangular");
      out << rows[k] + 1 << " " << j + 1 << " " << vals[k] << "\n";
    }
  }
}

}  // namespace spchol
