#include "partition/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "core/thread_pool.hpp"
#include "rng/splitmix64.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::partition {

std::uint64_t component_seed(std::uint64_t base_seed,
                             std::uint32_t component) noexcept {
    rng::SplitMix64 mix(base_seed ^ (0x9e3779b97f4a7c15ULL * (component + 1)));
    return mix.next();
}

core::LayoutResult run_component(const ComponentSubgraph& component,
                                 std::uint32_t component_id,
                                 const SchedulerOptions& opt) {
    // The component span carries the id in its category, so a trace shows
    // one "component" span per component on whichever worker track ran it,
    // with the engine/multilevel pass spans nested inside. (append, not
    // "c" + std::to_string(...): GCC 12 warns -Wrestrict on the latter.)
    telemetry::StageSpan span(
        "component", std::string("c").append(std::to_string(component_id)));
    const graph::LeanGraph& g = component.graph;
    core::LayoutConfig cfg = opt.config;
    cfg.seed = component_seed(opt.config.seed, component_id);
    if (auto done = core::empty_objective_result(g, cfg)) {
        return std::move(*done);
    }
    auto engine = core::make_engine(opt.backend);
    if (opt.multilevel) {
        const multilevel::LayoutPlan plan = multilevel::build_plan(
            cfg, opt.multilevel_opt,
            static_cast<double>(g.max_path_nuc_length()));
        multilevel::MultilevelResult ml =
            multilevel::run_plan(plan, g, *engine, cfg);
        core::LayoutResult r;
        r.layout = std::move(ml.layout);
        r.updates = ml.updates;
        r.skipped = ml.skipped;
        r.seconds = ml.engine_seconds;
        return r;
    }
    engine->init(g, cfg);
    return engine->run();
}

std::vector<core::LayoutResult> ComponentScheduler::run(
    const Decomposition& d) const {
    if (!core::EngineRegistry::instance().contains(opt_.backend)) {
        throw std::invalid_argument(core::unknown_engine_message(opt_.backend));
    }
    const std::uint32_t n = d.count();
    std::vector<core::LayoutResult> results(n);
    if (n == 0) return results;
    telemetry::Registry::instance().counter("partition.components").add(n);

    // Largest-first (LPT) order; ties broken by component id so the queue
    // order — though not the results, which land in id-indexed slots — is
    // deterministic too.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return d.components[a].graph.node_count() >
                                d.components[b].graph.node_count();
                     });

    std::atomic<std::uint32_t> completed{0};
    std::mutex hook_mutex;
    const auto report = [&](std::uint32_t c) {
        const std::uint32_t done =
            completed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (!hook_) return;
        ComponentProgress p;
        p.component = c;
        p.completed = done;
        p.total = n;
        p.nodes = d.components[c].graph.node_count();
        p.updates = results[c].updates;
        p.seconds = results[c].seconds;
        std::lock_guard<std::mutex> lock(hook_mutex);
        hook_(p);
    };

    std::atomic<std::uint32_t> next{0};
    const auto work = [&](std::uint32_t) {
        for (;;) {
            const std::uint32_t k = next.fetch_add(1, std::memory_order_relaxed);
            if (k >= n) return;
            const std::uint32_t c = order[k];
            results[c] = run_component(d.components[c], c, opt_);
            report(c);
        }
    };
    // A pool of size 0 runs the job inline on the caller — the right
    // degenerate form for workers <= 1.
    core::ThreadPool pool(opt_.workers <= 1 ? 0 : std::min(opt_.workers, n));
    pool.run(work);
    return results;
}

}  // namespace pgl::partition
