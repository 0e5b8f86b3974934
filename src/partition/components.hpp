#pragma once
// Connected-component decomposition — layer 1 of the partition subsystem.
//
// Whole-genome pangenomes are inherently multi-component (one component per
// chromosome plus unplaced contigs), yet PG-SGD lays out one connected
// graph at a time: a stress term never crosses a path, and a path never
// crosses a component, so disconnected components are independent layout
// problems. This module slices a LeanGraph into per-component subgraphs
// with stable remap tables, so every downstream consumer (engines, metrics,
// IO, rendering) sees an ordinary single-component graph. The labels come
// from the GFA reader (graph::LeanIngest: edge + path connectivity,
// computed while parsing) or, for a graph with no ingest behind it, from a
// union-find over its path steps.
//
// Component numbering is deterministic: components are numbered by their
// smallest global node id, and inside a component local node ids ascend
// with the global ids. Path slicing is exact — a path's steps all live in
// one component, so the sliced walk is the original walk verbatim (same
// orientations, same recomputed cumulative positions).
#include <cstdint>
#include <vector>

#include "graph/lean_graph.hpp"

namespace pgl::graph {
struct LeanIngest;  // graph/gfa_stream.hpp
}

namespace pgl::partition {

/// Sentinel for "not assigned to any component" (only empty paths).
inline constexpr std::uint32_t kNoComponent = 0xFFFFFFFFu;

/// Node/path -> component labeling.
struct ComponentLabels {
    std::uint32_t count = 0;
    std::vector<std::uint32_t> node_component;  ///< node id -> component id
    std::vector<std::uint32_t> path_component;  ///< path index -> component id
                                                ///< (kNoComponent for an empty path)
};

/// Labels components using path-step adjacency only — all the connectivity
/// a LeanGraph retains. Nodes touched by no path become singleton
/// components.
ComponentLabels label_components(const graph::LeanGraph& g);

/// Adopts the labels a streaming ingest computed while parsing (edge +
/// path connectivity, numbered by smallest node id like label_components).
/// Moves the label vectors out of `ing`; its graph and name tables are
/// untouched.
ComponentLabels take_labels(graph::LeanIngest& ing);

/// One connected component, sliced out as a standalone lean graph.
struct ComponentSubgraph {
    graph::LeanGraph graph;                    ///< local node ids are dense
    std::vector<graph::NodeId> global_node;    ///< local -> global node id, ascending
    std::vector<std::uint32_t> global_path;    ///< local -> global path index, ascending
};

/// The full decomposition: labels, per-component subgraphs, and the inverse
/// node remap (global id -> local id within its component).
struct Decomposition {
    ComponentLabels labels;
    std::vector<ComponentSubgraph> components;
    std::vector<std::uint32_t> local_node;  ///< global node id -> local node id

    std::uint32_t count() const noexcept {
        return static_cast<std::uint32_t>(components.size());
    }
    std::uint64_t global_node_count() const noexcept { return local_node.size(); }
};

/// Decomposes a lean graph (path connectivity only).
Decomposition decompose(const graph::LeanGraph& g);

/// Decomposes a lean graph using precomputed labels — the entry point for
/// ingested graphs, whose reader builds edge + path connectivity with a
/// union-find while parsing (graph::LeanIngest). `labels` must cover
/// exactly the graph's nodes and paths, and every path's steps must lie in
/// that path's component (io::read_pgg rejects cached labels that break
/// this).
Decomposition decompose(const graph::LeanGraph& g, ComponentLabels labels);

}  // namespace pgl::partition
