#pragma once
// Multilevel layout, plan layer. A multilevel run is described as an
// explicit ordered list of passes — coarsen / layout / interpolate /
// refine — built as plain data, validated as a whole, then executed by a
// small interpreter. The pass list is the single source of truth: the CLI
// prints it, the bench times it per entry, and tests rewrite it to probe
// the validator, the same "schedule as rewritable IR" shape a compiler
// lowering pipeline uses.
//
// The default plan (build_plan) is the V-shaped schedule the paper's
// multigrid framing suggests:
//
//   coarsen x L  ->  layout (hot anneal prefix, coarsest graph)
//     ->  interpolate x L  ->  refine (short anneal tail, full resolution)
//
// The default schedule splits the flat run's single cooling curve across
// resolutions. The coarse layout pass walks the *same* I-iteration eta
// curve a flat run would (coarsening preserves every path's nucleotide
// length, so the graph-derived eta ceiling is identical) but stops after
// the hot five-sixths — by then eta has swept the whole inter-run band,
// and relative run placement, the only geometry the coarse graph can
// represent, is converged. Interpolation lifts the layout, leaving only
// intra-run curvature: a sub-run-wavelength residual the straight-segment
// interpolator cannot draw. The refine pass anneals exactly that band at
// full resolution, restarting at (p95 run nucleotide length / 8)^2 — the
// measured optimum on the whole-genome workload, flat across a wide
// plateau (roughly /4 to /16 of the half-run temperature) but distinctly
// worse when restarted a full run-scale hot, which wastes the short tail
// re-shaking converged runs — and cooling to the one-nucleotide scale
// (kRefineEtaFloor), the smallest distance the nucleotide-unit layout can
// resolve. Cooling further (e.g. to the flat run's 0.01 default) spends
// the tail on moves too small to fix anything and measurably stalls
// short of flat-final quality. The conservative alternative
// (MultilevelOptions::exact_tail) instead picks refine_eta_max so the
// R-iteration refine schedule reproduces — to the last bit — the final R
// entries of the flat schedule's anneal.
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "graph/lean_graph.hpp"
#include "multilevel/coarsen.hpp"

namespace pgl::multilevel {

enum class PassKind : std::uint8_t {
    kCoarsen,      ///< build the next-coarser level from the current graph
    kLayout,       ///< cold full anneal on the current (coarsest) graph
    kInterpolate,  ///< project the layout one level finer
    kRefine,       ///< warm-started anneal tail on the current graph
};

const char* pass_kind_name(PassKind k) noexcept;

/// One step of a multilevel schedule. `level` is the graph level the pass
/// *consumes*: 0 is full resolution, each coarsen raises it by one. The
/// iteration fields apply to the engine passes only.
struct Pass {
    PassKind kind;
    std::uint32_t level = 0;
    std::uint32_t iter_max = 0;  ///< kLayout/kRefine: iterations to run
    double eta_max = 0.0;        ///< kRefine: restart temperature. 0 derives
                                 ///< (p95 run nuc length / 8)^2 from the
                                 ///< first coarse level at execution time
                                 ///< (the flat tail eta when no level
                                 ///< exists), with the schedule floor
                                 ///< raised to kRefineEtaFloor.
    std::uint32_t schedule_iters = 0;  ///< kLayout/kRefine: when non-zero,
                                       ///< the eta curve is built for this
                                       ///< many iterations and the pass runs
                                       ///< only the first iter_max of them
                                       ///< (the hot prefix). 0 = iter_max.
};

struct LayoutPlan {
    std::vector<Pass> passes;
};

struct MultilevelOptions {
    /// Coarsening levels (>= 1).
    std::uint32_t levels = 1;
    /// Coarse-level layout iterations; 0 means the hot five-sixths of the
    /// flat schedule, max(2, (5 * iter_max + 2) / 6) — the prefix that
    /// cools from the graph-scale eta ceiling through the whole inter-run
    /// band, where coarse-node geometry stops improving.
    std::uint32_t coarse_iters = 0;
    /// Full-resolution refinement iterations; 0 means the default tail of
    /// max(2, iter_max / 2) — half the flat schedule at full resolution,
    /// the shortest tail that reliably reaches flat-final quality.
    std::uint32_t refine_iters = 0;
    /// Explicit refine restart temperature; 0 derives it at execution time
    /// as (p95 run nucleotide length of the first coarse level / 8)^2, the
    /// sub-run scale of the straight-run interpolation error.
    double refine_eta = 0.0;
    /// Replaces the adaptive restart temperature with the flat schedule's
    /// own: the refine schedule becomes the last R entries of the flat
    /// I-iteration anneal, bit for bit (see refine_eta_max). Overrides
    /// refine_eta.
    bool exact_tail = false;
};

/// The refinement tail length `opt` resolves to under `cfg`.
std::uint32_t resolve_refine_iters(const core::LayoutConfig& cfg,
                                   const MultilevelOptions& opt) noexcept;

/// The coarse-level layout iteration count `opt` resolves to under `cfg`.
std::uint32_t resolve_coarse_iters(const core::LayoutConfig& cfg,
                                   const MultilevelOptions& opt) noexcept;

/// Restart temperature for an R-iteration refinement tail of a flat
/// I-iteration schedule over (max_dref, eps): the eta the flat schedule
/// would reach at iteration I - R, so the refine schedule equals the flat
/// schedule's last R entries exactly. Returns the full eta_max when
/// R >= I (the tail is the whole schedule).
double refine_eta_max(double max_dref, double eps, std::uint32_t iter_max,
                      std::uint32_t refine_iters) noexcept;

/// The adaptive refine restart temperature: (p95 nucleotide length of
/// `coarse`'s nodes / 8)^2. After the five-sixths coarse prefix, run
/// placement is converged and the interpolation residual is intra-run
/// curvature at sub-run wavelength; p95 (not max) keeps one pathological
/// run from overheating the whole pass. Returns 0 for an empty graph.
double adaptive_refine_eta(const graph::LeanGraph& coarse);

/// The adaptive refine schedule floor: the one-nucleotide scale (eta has
/// squared-length units, so 1.0). The layout's unit is the nucleotide, so
/// no inter-node distance error smaller than one exists; cooling below it
/// spends the short refine tail on moves too small to improve anything
/// and stalls short of flat-final quality.
inline constexpr double kRefineEtaFloor = 1.0;

/// Builds the default V-shaped plan for `cfg` on a graph whose longest
/// path is `max_dref` nucleotides. Throws std::invalid_argument when
/// opt.levels == 0.
LayoutPlan build_plan(const core::LayoutConfig& cfg,
                      const MultilevelOptions& opt, double max_dref);

/// Structural validation: passes must form a well-bracketed V — coarsens
/// first, one cold layout at the coarsest level, an interpolate per
/// coarsen, engine passes only where a layout exists, and the plan must
/// end at full resolution with a layout in hand. Throws
/// std::invalid_argument naming the offending pass.
void validate_plan(const LayoutPlan& plan);

/// One line per pass, e.g. "coarsen L0->L1; layout L1 x30; ...".
std::string describe(const LayoutPlan& plan);

/// Wall-clock of one executed pass.
struct PassTiming {
    PassKind kind;
    std::uint32_t level = 0;
    double seconds = 0.0;
};

struct MultilevelResult {
    core::Layout layout;
    std::vector<PassTiming> timings;          ///< one entry per executed pass
    std::vector<std::uint32_t> level_nodes;   ///< node count per level, fine first
    std::uint64_t updates = 0;                ///< terms across all engine passes
    std::uint64_t skipped = 0;
    double engine_seconds = 0.0;  ///< engine-reported (modeled for gpusim/torch)
};

/// Validates and executes `plan` on `fine` with `engine` (re-init'ed per
/// engine pass; it must outlive the call but carries no state across it —
/// the final pass rebinds it to `fine`). `cfg` supplies everything a pass
/// does not override (seed, threads, eps, sampler knobs). A graph
/// with no path steps short-circuits to the linear initial layout, as the
/// partition scheduler does.
MultilevelResult run_plan(const LayoutPlan& plan, const graph::LeanGraph& fine,
                          core::LayoutEngine& engine,
                          const core::LayoutConfig& cfg);

}  // namespace pgl::multilevel
