#pragma once
// The layout driver — one facade over the full pipeline that pgl_layout,
// the serve daemon's job runner, and tests all call instead of each
// wiring load -> decompose -> execute -> publish by hand:
//
//   RunRequest req;            // graph source + config + outputs + hooks
//   req.graph_path = "g.gfa";
//   req.out_path = "g.lay";
//   driver::RunOutcome out = driver::run_layout(req);
//
// The driver owns orchestration only: loading (GFA or .pgg, or adopting a
// caller-cached LeanIngest), the optional graph-cache write, choosing the
// flat / multilevel / partitioned execution path (a partitioned run lays
// its components out on a pool of in-process threads), atomic
// .lay/.svg/.ppm publication, the stress metric, and the stage spans
// --timing/--trace read. Presentation stays with the caller: the driver
// narrates through RunRequest::log (one line per event, exactly the lines
// the CLI historically printed) and never touches std::cout/cerr itself,
// so the daemon runs the same code path silently.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "graph/gfa_stream.hpp"
#include "metrics/path_stress.hpp"
#include "multilevel/plan.hpp"
#include "partition/partition.hpp"

namespace pgl::driver {

/// Everything a layout run needs. Exactly one graph source must be set:
/// `graph_path` (loaded by the driver) or `ingest` (adopted as-is — the
/// serve daemon's fingerprint-keyed graph cache hands its shared entry in
/// here; the driver copies the component labels it needs and never
/// mutates the ingest).
struct RunRequest {
    // --- graph source -----------------------------------------------------
    std::string graph_path;  ///< .gfa or .pgg, detected by extension
    bool force_pgg = false;  ///< read graph_path as .pgg regardless
    std::shared_ptr<const graph::LeanIngest> ingest;  ///< pre-loaded graph

    // --- execution --------------------------------------------------------
    std::string backend = "cpu-soa";  ///< EngineRegistry name
    core::LayoutConfig config;
    /// Optional engine override for the flat path (how `--gpu=a100`
    /// constructs a non-registry machine spec). Ignored with partition.
    std::function<std::unique_ptr<core::LayoutEngine>()> engine_factory;

    bool partition = false;
    std::uint32_t component_workers = 1;  ///< components laid out concurrently

    bool multilevel = false;
    multilevel::MultilevelOptions ml;

    // --- outputs ----------------------------------------------------------
    std::string out_path;         ///< final .lay (atomic); may be empty when
                                  ///< the caller publishes the layout itself
    std::string save_graph_path;  ///< write the .pgg cache after loading;
                                  ///< with no out_path: convert and stop
    std::string per_component_dir;  ///< dump component_<k>.lay per component
    std::string svg_path;
    std::string ppm_path;
    bool compute_stress = false;  ///< fill RunOutcome::stress

    // --- observers --------------------------------------------------------
    core::ProgressHook iteration_progress;          ///< flat/multilevel runs
    partition::ComponentHook component_progress;    ///< partitioned runs
    /// One line per pipeline event ("loaded ...", "wrote ...", run
    /// summaries), newline-free. Unset = silent.
    std::function<void(const std::string&)> log;

};

struct RunOutcome {
    /// save-graph-only request: the cache was written, no layout was run.
    bool convert_only = false;

    core::Layout layout;  ///< the published layout (stitched canvas when
                          ///< partitioned)

    // Graph shape, for callers that report it.
    std::uint64_t nodes = 0;
    std::uint64_t paths = 0;
    std::uint64_t steps = 0;
    std::uint32_t components = 0;

    bool partitioned = false;
    partition::PartitionResult partition;  ///< partitioned runs only

    std::vector<std::uint32_t> level_nodes;  ///< multilevel runs only

    std::string engine_name;  ///< resolved engine (flat/multilevel runs)
    std::uint64_t updates = 0;
    std::uint64_t skipped = 0;
    double engine_seconds = 0.0;

    bool stress_computed = false;
    metrics::StressResult stress;
};

/// Runs the whole pipeline described by `req`. Throws (std::runtime_error
/// / std::invalid_argument) on load, validation, or execution failure —
/// after the partition scheduler has drained in-flight components, so no
/// partial output file is ever published.
RunOutcome run_layout(const RunRequest& req);

}  // namespace pgl::driver
