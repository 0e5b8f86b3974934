#include "graph/lean_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pgl::graph {

namespace {

// Every construction route feeds its walks through LeanGraphBuilder, so
// identical walks yield bit-identical step records.
void add_walk(LeanGraphBuilder& b, const std::vector<Handle>& steps) {
    b.begin_path();
    for (const Handle& h : steps) b.add_step(h);
    b.end_path();
}

}  // namespace

LeanGraph LeanGraph::from_graph(const VariationGraph& g) {
    LeanGraphBuilder b;
    b.reserve_nodes(g.node_count());
    for (NodeId id = 0; id < g.node_count(); ++id) b.add_node(g.node_length(id));
    b.reserve_paths(g.path_count());
    b.reserve_steps(g.total_path_steps());
    for (const PathRecord& p : g.paths()) add_walk(b, p.steps);
    return b.finish();
}

LeanGraph LeanGraph::from_parts(const std::vector<std::uint32_t>& node_lengths,
                                const std::vector<std::vector<Handle>>& paths) {
    LeanGraphBuilder b;
    b.reserve_nodes(node_lengths.size());
    for (const std::uint32_t len : node_lengths) b.add_node(len);
    b.reserve_paths(paths.size());
    for (const auto& steps : paths) add_walk(b, steps);
    return b.finish();
}

NodeId LeanGraphBuilder::add_node(std::uint32_t length) {
    const NodeId id = static_cast<NodeId>(g_.node_len_.size());
    g_.node_len_.push_back(length);
    return id;
}

void LeanGraphBuilder::reserve_paths(std::size_t n) {
    g_.path_offset_.reserve(n + 1);
    g_.path_nuc_len_.reserve(n);
}

void LeanGraphBuilder::begin_path() {
    assert(!in_path_);
    in_path_ = true;
    pos_ = 0;
}

// Positions are cumulative nucleotide offsets within the path.
void LeanGraphBuilder::add_step(Handle h) {
    assert(in_path_);
    if (h.id() >= g_.node_len_.size()) {
        throw std::out_of_range("LeanGraphBuilder: step references unknown node");
    }
    g_.step_records_.push_back(PathStepRecord{h.id(), h.is_reverse() ? 1u : 0u, pos_});
    pos_ += g_.node_len_[h.id()];
}

std::uint32_t LeanGraphBuilder::end_path() {
    assert(in_path_);
    in_path_ = false;
    const std::uint32_t n = static_cast<std::uint32_t>(current_path_steps());
    g_.path_offset_.push_back(static_cast<std::uint32_t>(g_.step_records_.size()));
    g_.path_nuc_len_.push_back(pos_);
    g_.total_path_nuc_ += pos_;
    g_.max_path_nuc_len_ = std::max(g_.max_path_nuc_len_, pos_);
    return n;
}

LeanGraph LeanGraphBuilder::finish() {
    assert(!in_path_);
    return std::move(g_);
}

}  // namespace pgl::graph
