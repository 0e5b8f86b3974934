#pragma once
// The pluggable layout-engine interface. The paper's central comparison is
// one algorithm (PG-SGD, Alg. 1) executed by several machines — the
// multithreaded CPU Hogwild baseline, a PyTorch-style batched
// implementation and the optimized CUDA kernel (simulated here). Every
// backend implements this interface (init -> run(iterations) ->
// LayoutResult) and is created by name through the EngineRegistry, so
// tools, benches and cross-backend experiments drive all of them through
// one seam.
//
// Built-in registry names:
//   "cpu-soa"           Hogwild CPU engine (per-term loop, SoA store;
//                       deterministic per seed at one thread)
//   "cpu-pipelined"     pipelined CPU engine (pool producers sample ahead,
//                       the consumer applies; deterministic per seed+threads)
//   "gpusim-base"       simulated CUDA kernel, no optimizations
//   "gpusim-optimized"  simulated CUDA kernel, CDL + CRS + WM
//   "torch"             PyTorch-style batched tensor implementation
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/layout.hpp"
#include "core/registry.hpp"
#include "graph/lean_graph.hpp"

namespace pgl::core {

struct LayoutResult {
    Layout layout;
    double seconds = 0.0;             ///< wall-clock of the SGD loop (modeled
                                      ///< device time for gpusim/torch)
    std::uint64_t updates = 0;        ///< terms processed (including skipped)
    std::uint64_t skipped = 0;        ///< degenerate terms (d_ref == 0 etc.)
    std::vector<double> eta_schedule; ///< learning rate used per iteration
};

/// The degenerate-graph rule shared by every execution path — flat runs,
/// the multilevel plan interpreter, and the partition scheduler: a graph
/// with zero sampleable path terms has an empty SGD objective (the alias
/// table cannot even be built), so the seeded initial layout IS the final
/// layout. Returns an engaged zero-update result for such graphs and
/// nullopt when there is work to do. Defined once so the fallback's RNG
/// stream (make_initial_layout's salted seed) cannot drift between paths.
inline std::optional<LayoutResult> empty_objective_result(
    const graph::LeanGraph& g, const LayoutConfig& cfg) {
    if (g.total_path_steps() != 0) return std::nullopt;
    LayoutResult r;
    r.layout = make_initial_layout(g, cfg);
    return r;
}

/// Per-iteration progress snapshot passed to the progress hook.
struct IterationStats {
    std::uint32_t iteration = 0;      ///< 0-based iteration just finished
    std::uint32_t iter_max = 0;       ///< iterations in this run
    double eta = 0.0;                 ///< learning rate of the iteration
    std::uint64_t updates = 0;        ///< terms processed this iteration
    std::uint64_t skipped = 0;        ///< degenerate terms this iteration
};

using ProgressHook = std::function<void(const IterationStats&)>;

/// Abstract PG-SGD execution machine. Usage:
///
///   auto eng = core::make_engine("cpu-pipelined");
///   eng->init(graph, cfg);
///   eng->set_progress_hook([](const auto& s) { ... });  // optional
///   auto result = eng->run();          // full schedule (cfg.iter_max)
///   auto probe  = eng->run(3);         // or a truncated run
///
/// Every backend reports per-iteration progress. Iteration-synchronous
/// engines (cpu-pipelined, gpusim-*, torch) and cpu-soa with one thread
/// invoke the hook from the calling thread after each iteration. The
/// multithreaded Hogwild loop runs its workers through the whole schedule
/// without barriers — exactly as odgi-layout does — but each worker marks
/// iteration boundaries as it crosses them, and the *last* worker past a
/// boundary emits the aggregated IterationStats. Consequence: with
/// threads > 1 on cpu-soa the hook may fire on a worker thread (serialized,
/// never concurrently), and its updates/skipped are the aggregate since the
/// previous boundary rather than an exact per-iteration slice.
///
/// run() also feeds the telemetry layer (src/telemetry/): an `engine.run`
/// stage span, per-iteration `engine.iteration_ns` histogram samples, and
/// `engine.{runs,iterations,updates,skipped}` counters — all compiled out
/// under -DPGL_TELEMETRY=OFF.
class LayoutEngine {
public:
    virtual ~LayoutEngine() = default;

    virtual std::string_view name() const noexcept = 0;

    /// Binds the engine to a graph and configuration. Must be called before
    /// run(); may be called again to re-target the engine. Throws
    /// std::invalid_argument when check_config rejects `cfg`.
    void init(const graph::LeanGraph& g, const LayoutConfig& cfg) {
        check_config(cfg);
        graph_ = &g;
        cfg_ = cfg;
        do_init();
    }

    /// Executes the schedule and returns the final layout. `iterations`
    /// overrides cfg.iter_max when nonzero (a truncated run of the same
    /// annealing schedule). Throws std::logic_error if init() was not
    /// called.
    LayoutResult run(std::uint32_t iterations = 0);

    void set_progress_hook(ProgressHook hook) { hook_ = std::move(hook); }

protected:
    virtual void do_init() {}
    virtual LayoutResult do_run(const LayoutConfig& cfg) = 0;

    void emit_progress(const IterationStats& stats) const {
        if (hook_) hook_(stats);
    }
    bool has_progress_hook() const noexcept { return static_cast<bool>(hook_); }

    const graph::LeanGraph* graph_ = nullptr;
    LayoutConfig cfg_{};

private:
    ProgressHook hook_;
};

/// String-keyed factory registry of layout engines (the shared
/// FactoryRegistry behaviour: add-or-replace, contains, create, sorted
/// names). The built-in backends are registered on first use; additional
/// engines (future: real CUDA, sharded, async) can be registered at
/// startup by name.
class EngineRegistry : public FactoryRegistry<LayoutEngine> {
public:
    /// The process-wide registry, with all built-in engines registered.
    static EngineRegistry& instance();

private:
    EngineRegistry() = default;
};

/// "unknown layout engine "NAME"; available: ..." — the one rejection
/// message for an unregistered name, shared by make_engine and the up-front
/// checks (partition scheduler, daemon submit), so a stale backend name
/// lists the valid ones wherever it is caught.
std::string unknown_engine_message(const std::string& name);

/// Convenience: creates a registered engine or throws std::invalid_argument
/// with unknown_engine_message.
std::unique_ptr<LayoutEngine> make_engine(const std::string& name);

}  // namespace pgl::core
