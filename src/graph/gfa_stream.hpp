#pragma once
// Streaming GFA ingestion — the one GFA reader, and the scale path for
// real-world pangenomes (PGGB, minigraph-cactus whole genomes). It never
// materializes a rich graph (sequences + edge set + per-path Handle
// vectors); it makes two single-purpose passes over the input and feeds a
// LeanGraphBuilder directly:
//
//   pass 1 (segments):  S records -> name table + node lengths
//                       (sequence bytes are measured, never stored);
//   pass 2 (topology):  L records -> union-find adjacency only,
//                       P / W records -> streamed step-by-step into the
//                       builder (no per-path step vector is ever built).
//
// Peak memory is the LeanGraph itself plus the name table and two u32 words
// per node for the union-find. The union-find doubles as the
// partition-ready adjacency: LeanIngest carries dense component labels over
// edge + path connectivity (L links and path/walk steps), numbered by
// smallest node id, so `--partition` needs no second labeling pass.
//
// Dialect: GFA 1.0 (S/L/P) and GFA 1.1 (W walk) records, CRLF and
// trailing-whitespace tolerant, "S name *" with LN:i: length tags; other
// record types (H, C, ...) and '#' comment lines are skipped.
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/lean_graph.hpp"

namespace pgl::graph {

/// Everything the layout + partition pipeline needs from an input graph,
/// without the rich VariationGraph intermediate.
struct LeanIngest {
    LeanGraph graph;

    /// Original segment name per node id (S-record order).
    std::vector<std::string> segment_names;
    /// Path name per path index: the P-record name, or the synthesized
    /// sample#hap#seqid[:start-end] for a W walk.
    std::vector<std::string> path_names;

    /// Partition-ready adjacency: dense connected-component labels over
    /// edge + path connectivity (L links and path/walk steps), numbered by
    /// smallest member node id. partition::label_components(LeanGraph)
    /// sees only the path steps, so the two differ where an L link joins
    /// nodes no path walks across.
    std::uint32_t component_count = 0;
    std::vector<std::uint32_t> node_component;  ///< node id -> component
    std::vector<std::uint32_t> path_component;  ///< path index -> component

    std::uint64_t edge_count = 0;  ///< L records parsed (diagnostics only)
};

/// Streams GFA 1.0/1.1 from a seekable stream (two passes; file and string
/// streams both qualify). Throws std::runtime_error with a line number on
/// malformed input: duplicate segments, unknown segment references, bad
/// orientations, empty paths/walks (named in the message).
LeanIngest ingest_gfa(std::istream& in);

/// Convenience overload reading from a file path.
LeanIngest ingest_gfa_file(const std::string& path);

}  // namespace pgl::graph
