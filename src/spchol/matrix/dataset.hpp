// The paper's 21-matrix SuiteSparse test set (Tables I & II), mapped to
// synthetic analogs ~30x smaller in dimension. Each entry carries the
// paper-reported numbers so benches can print paper-vs-measured rows.
//
// Analog selection rationale (the README's Simulated device section says
// why the dataset is scaled down):
//  * EM / scalar-PDE matrices (CurlCurl_*, Hook_1498, ...) → 3D 7-point
//    Laplacians: moderate-density factors, mid-size supernodes.
//  * Dielectric filters → 3D 27-point stencils: denser rows.
//  * 2.5D / flow matrices with very many small supernodes (PFlow_742,
//    StocF-1465) → 2D grid / flat 3D box.
//  * Mechanical / geophysical vector problems (audikw_1, Flan_1565,
//    Serena, *_Coup_dt0, Bump_2911, Queen_4147) → 3 dofs/node vector grids:
//    few, large, dense supernodes — the matrices where the GPU wins big.
//  * nlpkkt80/120 → wide (range-2, 125-point) stencils: extremely dense
//    factors whose full update matrices exhaust device memory for RL
//    (reproducing the paper's nlpkkt120 out-of-memory failure).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "spchol/matrix/csc.hpp"

namespace spchol {

/// One row of the paper's Table I or Table II.
struct PaperRow {
  double time_s;     // paper GPU-accelerated runtime (seconds)
  double speedup;    // vs best CPU (best of RL/RLB x MKL threads)
  int gpu_supernodes;
  bool out_of_memory = false;  // nlpkkt120 / Table I
};

struct DatasetEntry {
  std::string name;        // paper matrix name
  index_t paper_n;         // paper matrix dimension (approximate)
  index_t paper_total_supernodes;
  PaperRow paper_rl;       // Table I row
  PaperRow paper_rlb;      // Table II row
  std::string analog;      // generator description
  std::function<CscMatrix()> make;
  /// True for the paper's 21 Table I/II matrices; false for extra
  /// synthetic regimes (e.g. the PFlow_742_small batching analog) that
  /// carry no paper row and are excluded from the table benches'
  /// default set (still reachable via dataset_entry()).
  bool paper_matrix = true;
};

/// All 21 entries in the paper's table order.
const std::vector<DatasetEntry>& dataset();

/// Lookup by paper name; throws InvalidArgument if absent.
const DatasetEntry& dataset_entry(const std::string& name);

}  // namespace spchol
