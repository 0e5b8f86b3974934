#pragma once
// The partition facade: schedule per-component engines -> stitch, in one
// call. This is the explode/squeeze workflow the odgi pipeline wraps
// around the paper's PG-SGD artifact, turned into a library entry point:
// feed it the decomposition of a (possibly multi-component) whole-genome
// graph and get back one canvas-level core::Layout that flows unchanged
// into lay_io, path_stress and the SVG/PPM renderers.
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "partition/components.hpp"
#include "partition/scheduler.hpp"
#include "partition/stitch.hpp"

namespace pgl::partition {

struct PartitionOptions {
    SchedulerOptions schedule;
    StitchOptions stitching;
    ComponentHook progress;  ///< optional per-component completion hook
};

struct PartitionResult {
    Decomposition decomposition;
    std::vector<core::LayoutResult> component_results;  ///< by component id
    StitchResult stitched;
    std::uint64_t updates = 0;  ///< summed over components
    std::uint64_t skipped = 0;
    double engine_seconds = 0.0;  ///< summed engine wall-clock (CPU work)
    double seconds = 0.0;         ///< wall-clock of the whole pipeline
    double stitch_seconds = 0.0;  ///< wall-clock of the stitch pass
};

/// Schedules and stitches a decomposition: the one partition entry point.
/// Callers decompose first — decompose(g, take_labels(ingest)) for an
/// ingested graph, decompose(g) for a lean graph with no ingest behind it.
PartitionResult partition_layout(Decomposition d, const PartitionOptions& opt);

}  // namespace pgl::partition
