#include "multilevel/plan.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/layout.hpp"
#include "multilevel/interpolate.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::multilevel {

const char* pass_kind_name(PassKind k) noexcept {
    switch (k) {
        case PassKind::kCoarsen: return "coarsen";
        case PassKind::kLayout: return "layout";
        case PassKind::kInterpolate: return "interpolate";
        case PassKind::kRefine: return "refine";
    }
    return "?";
}

std::uint32_t resolve_refine_iters(const core::LayoutConfig& cfg,
                                   const MultilevelOptions& opt) noexcept {
    if (opt.refine_iters > 0) return opt.refine_iters;
    return std::max<std::uint32_t>(2, cfg.schedule_length() / 2);
}

std::uint32_t resolve_coarse_iters(const core::LayoutConfig& cfg,
                                   const MultilevelOptions& opt) noexcept {
    if (opt.coarse_iters > 0) return opt.coarse_iters;
    return std::max<std::uint32_t>(2, (5 * cfg.schedule_length() + 2) / 6);
}

double refine_eta_max(double max_dref, double eps, std::uint32_t iter_max,
                      std::uint32_t refine_iters) noexcept {
    // Mirror make_eta_schedule's clamps so the tail identity holds bit for
    // bit: eta_max = d^2 with d >= 1, eps clamped into (0, eta_max].
    const double d = std::max(1.0, max_dref);
    const double emax = std::max(d * d, 1e-30);
    const double emin = std::min(std::max(eps, 1e-30), emax);
    if (refine_iters >= iter_max || iter_max <= 1) return emax;
    const double lambda =
        std::log(emax / emin) / static_cast<double>(iter_max - 1);
    return emax * std::exp(-lambda * static_cast<double>(iter_max - refine_iters));
}

LayoutPlan build_plan(const core::LayoutConfig& cfg,
                      const MultilevelOptions& opt, double max_dref) {
    if (opt.levels == 0) {
        throw std::invalid_argument(
            "multilevel: levels must be >= 1 (0 would be a flat run)");
    }
    const std::uint32_t iters = cfg.schedule_length();
    const std::uint32_t refine = resolve_refine_iters(cfg, opt);
    const std::uint32_t coarse = std::min(resolve_coarse_iters(cfg, opt), iters);

    LayoutPlan plan;
    plan.passes.reserve(2 * static_cast<std::size_t>(opt.levels) + 2);
    for (std::uint32_t l = 0; l < opt.levels; ++l) {
        plan.passes.push_back({PassKind::kCoarsen, l, 0, 0.0});
    }
    // The coarse anneal is the flat schedule's hot prefix: the full
    // I-iteration eta curve, truncated after `coarse` iterations.
    plan.passes.push_back({PassKind::kLayout, opt.levels, coarse, 0.0, iters});
    for (std::uint32_t l = opt.levels; l > 0; --l) {
        plan.passes.push_back({PassKind::kInterpolate, l, 0, 0.0});
    }
    double eta = opt.refine_eta;  // 0 = adaptive, derived at execution
    if (opt.exact_tail) {
        eta = refine_eta_max(max_dref, cfg.eps, iters, refine);
    }
    plan.passes.push_back({PassKind::kRefine, 0, refine, eta});
    return plan;
}

namespace {

[[noreturn]] void reject(std::size_t i, const Pass& p, const char* why) {
    throw std::invalid_argument("multilevel plan: pass " + std::to_string(i) +
                                " (" + pass_kind_name(p.kind) + " at level " +
                                std::to_string(p.level) + ") " + why);
}

}  // namespace

double adaptive_refine_eta(const graph::LeanGraph& coarse) {
    std::vector<std::uint32_t> lens(coarse.node_lengths().begin(),
                                    coarse.node_lengths().end());
    if (lens.empty()) return 0.0;
    const std::size_t k =
        std::min(lens.size() - 1,
                 static_cast<std::size_t>(static_cast<double>(lens.size()) * 0.95));
    std::nth_element(lens.begin(), lens.begin() + static_cast<std::ptrdiff_t>(k),
                     lens.end());
    const double p95 = static_cast<double>(lens[k]);
    return (p95 / 8.0) * (p95 / 8.0);
}

void validate_plan(const LayoutPlan& plan) {
    if (plan.passes.empty()) {
        throw std::invalid_argument("multilevel plan: empty pass list");
    }
    std::uint32_t level = 0;
    bool have_layout = false;
    for (std::size_t i = 0; i < plan.passes.size(); ++i) {
        const Pass& p = plan.passes[i];
        switch (p.kind) {
            case PassKind::kCoarsen:
                if (have_layout) reject(i, p, "coarsens after a layout exists");
                if (p.level != level) reject(i, p, "consumes the wrong level");
                ++level;
                break;
            case PassKind::kLayout:
                if (have_layout) reject(i, p, "would discard an earlier layout");
                if (p.level != level) reject(i, p, "runs at the wrong level");
                if (p.iter_max == 0) reject(i, p, "has no iterations");
                if (p.schedule_iters != 0 && p.schedule_iters < p.iter_max) {
                    reject(i, p, "has a schedule shorter than its iterations");
                }
                have_layout = true;
                break;
            case PassKind::kInterpolate:
                if (!have_layout) reject(i, p, "has no layout to project");
                if (level == 0) reject(i, p, "is already at full resolution");
                if (p.level != level) reject(i, p, "consumes the wrong level");
                --level;
                break;
            case PassKind::kRefine:
                if (!have_layout) reject(i, p, "has no layout to refine");
                if (p.level != level) reject(i, p, "runs at the wrong level");
                if (p.iter_max == 0) reject(i, p, "has no iterations");
                if (p.schedule_iters != 0 && p.schedule_iters < p.iter_max) {
                    reject(i, p, "has a schedule shorter than its iterations");
                }
                break;
        }
    }
    if (!have_layout) {
        throw std::invalid_argument("multilevel plan: no layout pass");
    }
    if (level != 0) {
        throw std::invalid_argument(
            "multilevel plan: ends at level " + std::to_string(level) +
            ", not full resolution");
    }
}

std::string describe(const LayoutPlan& plan) {
    std::string out;
    for (const Pass& p : plan.passes) {
        if (!out.empty()) out += "; ";
        out += pass_kind_name(p.kind);
        switch (p.kind) {
            case PassKind::kCoarsen:
                out += " L" + std::to_string(p.level) + "->L" +
                       std::to_string(p.level + 1);
                break;
            case PassKind::kInterpolate:
                out += " L" + std::to_string(p.level) + "->L" +
                       std::to_string(p.level - 1);
                break;
            case PassKind::kLayout:
            case PassKind::kRefine:
                out += " L" + std::to_string(p.level) + " x" +
                       std::to_string(p.iter_max);
                if (p.schedule_iters != 0 && p.schedule_iters != p.iter_max) {
                    out += '/';  // not "/" + ...: GCC 12 -Wrestrict
                    out += std::to_string(p.schedule_iters);
                }
                break;
        }
    }
    return out;
}

MultilevelResult run_plan(const LayoutPlan& plan, const graph::LeanGraph& fine,
                          core::LayoutEngine& engine,
                          const core::LayoutConfig& cfg) {
    validate_plan(plan);

    MultilevelResult out;
    out.level_nodes.push_back(fine.node_count());

    if (auto done = core::empty_objective_result(fine, cfg)) {
        out.layout = std::move(done->layout);
        return out;
    }

    using clock = std::chrono::steady_clock;
    // levels[l - 1] maps level l-1 -> level l; level 0 is `fine` itself.
    std::vector<CoarseLevel> levels;
    const auto graph_at = [&](std::uint32_t l) -> const graph::LeanGraph& {
        return l == 0 ? fine : levels[l - 1].graph;
    };

    core::Layout current;
    std::uint32_t level = 0;
    for (const Pass& p : plan.passes) {
        const auto t0 = clock::now();
        // One stage span per pass: `span.coarsen` / `span.layout` /
        // `span.interpolate` / `span.refine` aggregate across components
        // under --partition, and the trace shows each pass nested inside
        // its component/job span. PassTiming stays: bench_multilevel reads
        // per-pass wall-clock from the result, not the process registry.
        telemetry::StageSpan pass_span(pass_kind_name(p.kind), "multilevel");
        switch (p.kind) {
            case PassKind::kCoarsen: {
                levels.push_back(coarsen(graph_at(level)));
                ++level;
                out.level_nodes.push_back(graph_at(level).node_count());
                break;
            }
            case PassKind::kLayout:
            case PassKind::kRefine: {
                core::LayoutConfig pass_cfg = cfg;
                pass_cfg.iter_max = p.iter_max;
                pass_cfg.schedule_iter_max = p.schedule_iters;
                pass_cfg.eta_max = p.eta_max;
                if (p.kind == PassKind::kRefine && p.eta_max == 0.0) {
                    if (!levels.empty()) {
                        pass_cfg.eta_max =
                            adaptive_refine_eta(levels.front().graph);
                    }
                    if (pass_cfg.eta_max == 0.0) {
                        pass_cfg.eta_max = refine_eta_max(
                            static_cast<double>(
                                graph_at(level).max_path_nuc_length()),
                            cfg.eps, cfg.schedule_length(), p.iter_max);
                    } else {
                        // Adaptive restart: also raise the schedule floor
                        // to the nucleotide scale — cooling below it
                        // wastes the short tail (see kRefineEtaFloor).
                        pass_cfg.eps = std::max(cfg.eps, kRefineEtaFloor);
                    }
                }
                if (p.kind == PassKind::kRefine) {
                    // The tail of the flat anneal is entirely inside the
                    // cooling phase; a warm-started refinement stays there.
                    pass_cfg.cooling_start = 0.0;
                    pass_cfg.initial_layout =
                        std::make_shared<const core::Layout>(
                            std::move(current));
                }
                engine.init(graph_at(level), pass_cfg);
                core::LayoutResult r = engine.run();
                current = std::move(r.layout);
                out.updates += r.updates;
                out.skipped += r.skipped;
                out.engine_seconds += r.seconds;
                break;
            }
            case PassKind::kInterpolate: {
                current = interpolate(levels[level - 1].map, current,
                                      graph_at(level - 1));
                --level;
                break;
            }
        }
        out.timings.push_back(
            {p.kind, p.level,
             std::chrono::duration<double>(clock::now() - t0).count()});
    }
    out.layout = std::move(current);
    return out;
}

}  // namespace pgl::multilevel
