// Bulge chasing: symmetric band -> tridiagonal (the second stage of two-stage
// tridiagonalization; the paper calls MAGMA's implementation, we build the
// classic Givens-rotation scheme of Schwarz/Rutishauser).
//
// The bandwidth is peeled one diagonal at a time: eliminating an entry on the
// outermost diagonal with a Givens rotation creates a single bulge one place
// outside the band, which is chased down and off the matrix in strides of the
// current bandwidth. Cost is O(n^2 b) flops — this is why the paper keeps the
// SBR bandwidth b modest (the bulge-chasing stage scales with b) even though
// larger b would make the SBR GEMMs squarer still.
//
// This header is the SERIAL chase — the bitwise reference. It copies the band
// of the caller's matrix once into compact storage (O(n b),
// bulge_kernels.hpp), chases it there one diagonal at a time, logs each
// diagonal's rotations and applies them to Q through QUpdate (q_update.hpp).
// Without a pool, Q is updated in place on the calling thread after each
// diagonal. With a pool, the Q update of diagonal d runs on packed row
// panels across the pool's lanes while the caller's lane chases diagonal
// d - 1 into a second log; the rows of Q see the same operations in the same
// order, so d, e and Q are bitwise identical either way (DESIGN.md §14). The
// values-only wavefront driver (bulge_wavefront.hpp) parallelizes the chase
// itself.
#pragma once

#include <vector>

#include "src/common/matrix.hpp"

namespace tcevd {
class Context;
class ThreadPool;
}  // namespace tcevd

namespace tcevd::bulge {

template <typename T>
struct BulgeResult {
  std::vector<T> d;  ///< diagonal of the tridiagonal form
  std::vector<T> e;  ///< subdiagonal
};

/// Reduce symmetric `a` (full storage, bandwidth `bw`) to tridiagonal form.
/// Only the band |i - j| <= bw of the lower triangle is read, and `a` is not
/// written. If `q` is non-null it must have n columns and is multiplied on
/// the right by every rotation (pass the SBR's Q to keep the full similarity
/// transform). The compact band and the rotation log are heap-allocated per
/// call; the Context overloads take them from the workspace arena instead.
template <typename T>
BulgeResult<T> bulge_chase(ConstMatrixView<T> a, index_t bw, MatrixView<T>* q = nullptr);

extern template BulgeResult<float> bulge_chase<float>(ConstMatrixView<float>, index_t,
                                                      MatrixView<float>*);
extern template BulgeResult<double> bulge_chase<double>(ConstMatrixView<double>, index_t,
                                                        MatrixView<double>*);

/// Context-aware entry points: the same chase, with the compact band, the
/// rotation logs and the packed Q panels in the context's workspace arena.
/// With Q and a pool (not called from a pool worker), the Q update runs on
/// up to max_lanes lanes of `pool` (0 = pool size + 1, the caller's lane
/// included), overlapped with the chase; the output is bitwise that of the
/// in-place route. The elapsed time lands on the context's telemetry under
/// stage "bulge.chase"; with Q, the chase's own time under
/// "bulge.chase.sweep" and the Q update's under "bulge.q_update", once per
/// call (under overlap the two run concurrently, see DESIGN.md §14). Both
/// instantiations are covered so the double reference pipelines are
/// stage-attributed too.
BulgeResult<float> bulge_chase(Context& ctx, ConstMatrixView<float> a, index_t bw,
                               MatrixView<float>* q = nullptr, ThreadPool* pool = nullptr,
                               int max_lanes = 0);
BulgeResult<double> bulge_chase(Context& ctx, ConstMatrixView<double> a, index_t bw,
                                MatrixView<double>* q = nullptr, ThreadPool* pool = nullptr,
                                int max_lanes = 0);

}  // namespace tcevd::bulge
