#include "graph/variation_graph.hpp"

#include <sstream>
#include <utility>

namespace pgl::graph {

NodeId VariationGraph::add_node(std::string sequence) {
    const NodeId id = static_cast<NodeId>(sequences_.size());
    total_seq_len_ += sequence.size();
    sequences_.push_back(std::move(sequence));
    return id;
}

bool VariationGraph::add_edge(Handle from, Handle to) {
    const Edge e = Edge{from, to}.canonical();
    if (!edge_set_.insert(e).second) return false;
    edges_.push_back(e);
    return true;
}

bool VariationGraph::has_edge(Handle from, Handle to) const {
    return edge_set_.contains(Edge{from, to}.canonical());
}

std::size_t VariationGraph::add_path(std::string name, std::vector<Handle> steps) {
    for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
        add_edge(steps[i], steps[i + 1]);
    }
    total_path_steps_ += steps.size();
    paths_.push_back(PathRecord{std::move(name), std::move(steps)});
    return paths_.size() - 1;
}

GraphStats VariationGraph::stats() const {
    GraphStats s;
    s.nucleotides = total_seq_len_;
    s.nodes = node_count();
    s.edges = edge_count();
    s.paths = path_count();
    s.total_path_steps = total_path_steps_;
    if (s.nodes > 0) {
        s.mean_degree = 2.0 * static_cast<double>(s.edges) / static_cast<double>(s.nodes);
    }
    if (s.nodes > 1) {
        s.density = static_cast<double>(s.edges) /
                    (static_cast<double>(s.nodes) * static_cast<double>(s.nodes - 1));
    }
    return s;
}

std::string VariationGraph::validate() const {
    for (std::size_t pi = 0; pi < paths_.size(); ++pi) {
        const PathRecord& p = paths_[pi];
        if (p.steps.empty()) {
            std::ostringstream os;
            os << "path " << p.name << " is empty";
            return os.str();
        }
        for (std::size_t si = 0; si < p.steps.size(); ++si) {
            if (p.steps[si].id() >= sequences_.size()) {
                std::ostringstream os;
                os << "path " << p.name << " step " << si
                   << " references missing node " << p.steps[si].id();
                return os.str();
            }
            if (si + 1 < p.steps.size() && !has_edge(p.steps[si], p.steps[si + 1])) {
                std::ostringstream os;
                os << "path " << p.name << " steps " << si << ".." << (si + 1)
                   << " are not connected by an edge";
                return os.str();
            }
        }
    }
    for (const Edge& e : edges_) {
        if (e.from.id() >= sequences_.size() || e.to.id() >= sequences_.size()) {
            return "edge references missing node";
        }
    }
    return {};
}

}  // namespace pgl::graph
