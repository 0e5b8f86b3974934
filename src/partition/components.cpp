#include "partition/components.hpp"

#include <cassert>
#include <utility>

#include "core/union_find.hpp"
#include "graph/gfa_stream.hpp"

namespace pgl::partition {

ComponentLabels label_components(const graph::LeanGraph& g) {
    core::UnionFind uf(g.node_count());
    for (std::uint32_t p = 0; p < g.path_count(); ++p) {
        const std::uint32_t n_steps = g.path_step_count(p);
        for (std::uint32_t i = 1; i < n_steps; ++i) {
            uf.unite(g.step_record(p, i - 1).node, g.step_record(p, i).node);
        }
    }
    // Dense ids numbered by the smallest node id in each component.
    auto dense = core::dense_labels(uf);
    ComponentLabels labels;
    labels.count = dense.count;
    labels.node_component = std::move(dense.label);
    labels.path_component.assign(g.path_count(), kNoComponent);
    for (std::uint32_t p = 0; p < g.path_count(); ++p) {
        if (g.path_step_count(p) > 0) {
            labels.path_component[p] = labels.node_component[g.step_record(p, 0).node];
        }
    }
    return labels;
}

ComponentLabels take_labels(graph::LeanIngest& ing) {
    ComponentLabels labels;
    labels.count = ing.component_count;
    labels.node_component = std::move(ing.node_component);
    labels.path_component = std::move(ing.path_component);
    ing.component_count = 0;
    return labels;
}

Decomposition decompose(const graph::LeanGraph& g) {
    return decompose(g, label_components(g));
}

// Each component is built through its own LeanGraphBuilder, straight from
// the source step records remapped to local node ids.
Decomposition decompose(const graph::LeanGraph& g, ComponentLabels labels) {
    Decomposition d;
    d.labels = std::move(labels);
    d.components.resize(d.labels.count);
    d.local_node.assign(g.node_count(), 0);
    std::vector<graph::LeanGraphBuilder> builders(d.labels.count);

    // Node remap: local ids ascend with global ids inside each component.
    for (std::uint32_t v = 0; v < g.node_count(); ++v) {
        const std::uint32_t c = d.labels.node_component[v];
        d.local_node[v] = builders[c].add_node(g.node_length(v));
        d.components[c].global_node.push_back(v);
    }

    // Size each component's step table before the walks arrive.
    std::vector<std::uint64_t> step_counts(d.labels.count, 0);
    for (std::uint32_t p = 0; p < g.path_count(); ++p) {
        const std::uint32_t c = d.labels.path_component[p];
        if (c != kNoComponent) step_counts[c] += g.path_step_count(p);
    }
    for (std::uint32_t c = 0; c < d.labels.count; ++c) {
        builders[c].reserve_steps(step_counts[c]);
    }

    for (std::uint32_t p = 0; p < g.path_count(); ++p) {
        // label_components already assigned the path; kNoComponent marks an
        // empty path, which belongs to no component.
        const std::uint32_t c = d.labels.path_component[p];
        if (c == kNoComponent) continue;
        graph::LeanGraphBuilder& b = builders[c];
        b.begin_path();
        for (std::uint32_t i = 0; i < g.path_step_count(p); ++i) {
            const graph::PathStepRecord& r = g.step_record(p, i);
            assert(d.labels.node_component[r.node] == c);
            b.add_step(graph::Handle::make(d.local_node[r.node], r.orient != 0));
        }
        b.end_path();
        d.components[c].global_path.push_back(p);
    }

    for (std::uint32_t c = 0; c < d.labels.count; ++c) {
        d.components[c].graph = builders[c].finish();
    }
    return d;
}

}  // namespace pgl::partition
