// Threading policy for the packed GEMM macro-kernel.
//
// The packed GEMM (gemm_packed.hpp) fans each (jc, pc) block out as BLIS
// lanes on the process-wide gemm_pool() — but only when doing so cannot
// oversubscribe the machine. The composition contract has three layers:
//
//   1. ThreadPool::on_worker_thread(): a GEMM issued from inside ANY pool
//      worker (solve_many batch workers, the look-ahead run_pair task) runs
//      one lane on the calling thread. The batch/overlap pools own the parallelism
//      budget at their level; GEMM-level threads stand down underneath them.
//   2. SerialGemmScope: an RAII guard for caller threads that are not pool
//      workers but still co-run with pool work — e.g. the look-ahead inline
//      task, which runs on the main thread while its sibling drains the
//      trailing update on overlap_pool(). Entering the scope forces the
//      serial (one-lane) path on this thread until the scope exits
//      (nestable).
//   3. A size floor: tiny GEMMs (2mnk below ~4 Mflop) are not worth a
//      broadcast round-trip and stay serial regardless.
//
// Determinism: pooling never changes results. Lanes compute disjoint C blocks
// and each element's kc-blocked accumulation order is identical to the
// serial path, so pooled output is bitwise-identical to serial output.
#pragma once

#include <cstdint>

#include "src/common/matrix.hpp"

namespace tcevd {
namespace blas {

/// RAII guard forcing the serial (one-lane) path for every gemm issued on
/// this thread while the scope is alive. Nestable: the serial force lifts when the
/// outermost scope exits.
class SerialGemmScope {
 public:
  SerialGemmScope() noexcept;
  ~SerialGemmScope();
  SerialGemmScope(const SerialGemmScope&) = delete;
  SerialGemmScope& operator=(const SerialGemmScope&) = delete;
};

/// True while any SerialGemmScope is alive on the calling thread.
bool gemm_serial_forced() noexcept;

/// Process-wide count of lane fan-outs dispatched onto gemm_pool(): a pooled
/// gemm contributes one per (jc, pc) block — NC output columns by KC of the
/// inner dimension — that actually broadcast. Test hook: stress tests assert
/// this stays flat while nested (solve_many / look-ahead) GEMMs run, proving
/// the stand-down contract holds.
std::uint64_t gemm_pool_dispatches() noexcept;

namespace detail {

/// Decide whether this gemm call may fan out on gemm_pool(): not nested under
/// a pool worker, not inside a SerialGemmScope, and big enough to amortize
/// the broadcast round-trip.
bool use_gemm_pool(index_t m, index_t n, index_t k) noexcept;

/// Bump the gemm_pool_dispatches() counter. Called once per (jc, pc) block
/// broadcast actually dispatched onto gemm_pool(), matching the
/// gemm_pool_dispatches() doc above.
void count_gemm_pool_dispatch() noexcept;

}  // namespace detail
}  // namespace blas
}  // namespace tcevd
