#include "partition/scheduler.hpp"

#include <stdexcept>

#include "core/kernels/update_kernel.hpp"
#include "partition/executor.hpp"
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
    // with the engine/multilevel pass spans nested inside.
    telemetry::StageSpan span("component",
                              "c" + std::to_string(component_id));
    SchedulerOptions mixed = opt;
    mixed.config.seed = component_seed(opt.config.seed, component_id);
    return run_component_graph(component.graph, mixed);
}

std::vector<core::LayoutResult> ComponentScheduler::run(
    const Decomposition& d) const {
    if (!core::EngineRegistry::instance().contains(opt_.backend)) {
        throw std::invalid_argument(core::unknown_engine_message(opt_.backend));
    }
    // Fail before any component runs, not from inside a worker thread (or
    // a worker process).
    if (!core::KernelRegistry::instance().contains(opt_.config.kernel)) {
        throw std::invalid_argument("unknown update kernel: " +
                                    opt_.config.kernel);
    }
    const auto executor = make_executor(opt_.executor);  // validates the name
    const std::uint32_t n = d.count();
    if (n == 0) return std::vector<core::LayoutResult>(n);
    telemetry::Registry::instance().counter("partition.components").add(n);
    return executor->run(d, opt_, hook_);
}

}  // namespace pgl::partition
