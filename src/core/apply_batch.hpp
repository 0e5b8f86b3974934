#pragma once
// The apply half of the batched term pipeline: one function drains a
// TermBatch into the flat XYStore coordinate arrays. apply_batch picks its
// path once per process from the CPU it runs on (4-wide AVX2 lanes, else
// the scalar loop) — a platform fact, not a user option, and both write
// the same bytes.
//
// Determinism contract (it is what the pipelined engine's fixed-(seed,
// threads) byte-reproducibility — and the partition scheduler's
// byte-equivalence ctest — are built on):
//   * terms apply in slot order: a later term reads every coordinate an
//     earlier term of the same batch already wrote ("chained" updates);
//   * slots with valid == 0 are holes and must be skipped untouched;
//   * the arithmetic is the shared step_math term, evaluated with IEEE
//     operations only (no FMA contraction, no reassociation), so the AVX2
//     lanes produce the bytes of apply_term_slots.
#include <cstddef>
#include <cstdint>

#include "core/layout.hpp"
#include "core/step_math.hpp"
#include "core/term_batch.hpp"

namespace pgl::core {

/// Applies slots [begin, end) one term at a time, in slot order, against
/// raw coordinate arrays (XYStore layout: element 2*node + end). This is
/// the reference semantics the AVX2 path is tested against, the loop it
/// falls back to for conflicting lane groups and tails, and the whole
/// apply on a CPU without AVX2.
inline void apply_term_slots(const TermBatch& b, std::size_t begin,
                             std::size_t end, double eta, float* x,
                             float* y) noexcept {
    for (std::size_t k = begin; k < end; ++k) {
        if (!b.valid[k]) continue;
        const std::size_t ii = XYStore::index(b.node_i[k], b.end_i_of(k));
        const std::size_t jj = XYStore::index(b.node_j[k], b.end_j_of(k));
        const float xi = x[ii];
        const float yi = y[ii];
        const float xj = x[jj];
        const float yj = y[jj];
        const PointDelta d =
            sgd_term_update(xi, yi, xj, yj, b.d_ref[k], eta, b.nudge[k]);
        x[ii] = xi + d.dx_i;
        y[ii] = yi + d.dy_i;
        x[jj] = xj + d.dx_j;
        y[jj] = yj + d.dy_j;
    }
}

/// The paths apply_batch can run: the apply_term_slots loop or AVX2 lanes.
enum class KernelIsa : std::uint8_t { kScalarFallback, kAvx2 };

/// kAvx2 when this CPU supports AVX2, else kScalarFallback; detected once
/// per process.
KernelIsa detected_kernel_isa() noexcept;

/// True when `isa` can run on this CPU.
bool kernel_isa_supported(KernelIsa isa) noexcept;

/// "avx2" or "scalar-fallback".
const char* kernel_isa_name(KernelIsa isa) noexcept;

/// Applies every valid term of the batch to the store, in slot order, on
/// the detected path. Feeds the `kernel.simd.*` telemetry counters.
void apply_batch(const TermBatch& b, double eta, XYStore& store);

/// apply_batch on a given path, so tests can run both on an AVX2 CPU.
/// Throws std::invalid_argument for one this CPU does not support
/// (kernel_isa_supported).
void apply_batch_with(KernelIsa isa, const TermBatch& b, double eta,
                      XYStore& store);

}  // namespace pgl::core
