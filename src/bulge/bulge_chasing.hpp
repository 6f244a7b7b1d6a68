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
// This header is the SERIAL driver — the bitwise reference. The wavefront-
// parallel driver (bulge_wavefront.hpp) runs the identical rotation sequence
// per sweep on the shared ThreadPool and is pinned bitwise-equal to this one
// for every thread count; see DESIGN.md §14. Both drivers copy the band of
// the caller's matrix once into compact storage (O(n b), bulge_kernels.hpp),
// chase it there with the one rotation kernel, log each diagonal's rotations
// and apply them to Q through QUpdate (q_update.hpp) once the diagonal is
// chased; the serial driver applies them in place, on one lane.
#pragma once

#include <vector>

#include "src/common/matrix.hpp"

namespace tcevd {
class Context;
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

/// Context-aware entry points: same rotation-level algorithm, with the
/// compact band and the rotation log in the context's workspace arena. The elapsed time lands on
/// the context's telemetry under stage "bulge.chase", and the Q update's
/// share of it under "bulge.q_update". Both instantiations are covered so
/// the double reference pipelines are stage-attributed too.
BulgeResult<float> bulge_chase(Context& ctx, ConstMatrixView<float> a, index_t bw,
                               MatrixView<float>* q = nullptr);
BulgeResult<double> bulge_chase(Context& ctx, ConstMatrixView<double> a, index_t bw,
                                MatrixView<double>* q = nullptr);

}  // namespace tcevd::bulge
