// Tests for the partition subsystem: union-find component labeling,
// subgraph slicing with stable remap tables, the per-component scheduler's
// determinism, shelf stitching, and the headline contract — a partitioned
// run is byte-identical to standalone per-component runs modulo the
// deterministic stitch translation.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "partition/partition.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;

/// Ingests a GFA string through the one GFA reader.
graph::LeanIngest ingest(const std::string& gfa) {
    std::stringstream ss(gfa);
    return graph::ingest_gfa(ss);
}

/// Decomposes a GFA string with the reader's edge + path labels.
partition::Decomposition decompose_gfa(const std::string& gfa) {
    auto ing = ingest(gfa);
    return partition::decompose(ing.graph, partition::take_labels(ing));
}

/// Decomposes a generator graph through its lean form (path connectivity;
/// generators add edges only along paths, so nothing is lost).
partition::Decomposition decompose_vg(const graph::VariationGraph& vg) {
    return partition::decompose(graph::LeanGraph::from_graph(vg));
}

graph::VariationGraph small_genome(std::uint32_t n_components,
                                   std::uint64_t seed = 0xC0DE) {
    return workloads::generate_whole_genome(
        workloads::whole_genome_spec(n_components, 0.0002, seed));
}

core::LayoutConfig quick_config(std::uint32_t threads = 1) {
    core::LayoutConfig cfg;
    cfg.iter_max = 2;
    cfg.steps_per_iter_factor = 0.2;
    cfg.threads = threads;
    cfg.seed = 77;
    return cfg;
}

void expect_layout_bitwise_equal(const core::Layout& a, const core::Layout& b) {
    ASSERT_EQ(a.size(), b.size());
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        mismatches += (a.start_x[i] != b.start_x[i]) +
                      (a.start_y[i] != b.start_y[i]) +
                      (a.end_x[i] != b.end_x[i]) + (a.end_y[i] != b.end_y[i]);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Components, LabelsEdgeAndPathConnectivity) {
    // Component A: segments 1-2-3; the path walks 1-2 and an L link alone
    // attaches 3. Component B: 4-5, joined only by a path. Component C:
    // segment 6, isolated.
    const auto ing = ingest(
        "S\t1\tACGT\nS\t2\tACGT\nS\t3\tACGT\n"
        "S\t4\tACGT\nS\t5\tACGT\nS\t6\tACGT\n"
        "L\t1\t+\t2\t+\t0M\nL\t2\t+\t3\t+\t0M\n"
        "P\tA#0\t1+,2+\t*\nP\tB#0\t4+,5+\t*\n");
    EXPECT_EQ(ing.component_count, 3u);
    // Components are numbered by their smallest node id.
    const std::vector<std::uint32_t> expected{0, 0, 0, 1, 1, 2};
    EXPECT_EQ(ing.node_component, expected);
    EXPECT_EQ(ing.path_component, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Components, LeanLabelingUsesPathAdjacencyOnly) {
    // Segments joined only by an L link that no path crosses are one
    // component to the reader (edge + path connectivity) but two
    // singletons to the lean labeler, which sees path steps only.
    const auto ing = ingest("S\ta\tA\nS\tb\tC\nL\ta\t+\tb\t+\t0M\n");
    EXPECT_EQ(ing.component_count, 1u);
    EXPECT_EQ(partition::label_components(ing.graph).count, 2u);
}

TEST(Components, DecompositionRemapTablesAreConsistent) {
    const auto vg = small_genome(3);
    const auto d = decompose_vg(vg);
    ASSERT_EQ(d.count(), 3u);
    EXPECT_EQ(d.global_node_count(), vg.node_count());

    std::uint64_t nodes_total = 0, paths_total = 0;
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        const auto& comp = d.components[c];
        ASSERT_EQ(comp.graph.node_count(), comp.global_node.size());
        nodes_total += comp.global_node.size();
        paths_total += comp.global_path.size();
        for (std::size_t i = 0; i < comp.global_node.size(); ++i) {
            const graph::NodeId g = comp.global_node[i];
            // Ascending remap, correct inverse, preserved node lengths.
            if (i > 0) EXPECT_LT(comp.global_node[i - 1], g);
            EXPECT_EQ(d.labels.node_component[g], c);
            EXPECT_EQ(d.local_node[g], i);
            EXPECT_EQ(comp.graph.node_length(static_cast<graph::NodeId>(i)),
                      vg.node_length(g));
        }
    }
    EXPECT_EQ(nodes_total, vg.node_count());
    EXPECT_EQ(paths_total, vg.path_count());
}

TEST(Components, PathSlicingIsExact) {
    const auto vg = small_genome(2);
    const auto lean = graph::LeanGraph::from_graph(vg);
    // Both label sources — the lean labeler and the GFA reader's labels on
    // the written graph — must slice into identical component step records.
    std::stringstream gfa;
    graph::write_gfa(vg, gfa);
    const partition::Decomposition decomps[] = {partition::decompose(lean),
                                                decompose_gfa(gfa.str())};
    for (const auto& d : decomps) {
        ASSERT_GT(d.count(), 1u);
        for (std::uint32_t c = 0; c < d.count(); ++c) {
            const auto& comp = d.components[c];
            for (std::uint32_t lp = 0; lp < comp.graph.path_count(); ++lp) {
                const std::uint32_t gp = comp.global_path[lp];
                ASSERT_EQ(comp.graph.path_step_count(lp), lean.path_step_count(gp));
                for (std::uint32_t i = 0; i < comp.graph.path_step_count(lp); ++i) {
                    const auto& local = comp.graph.step_record(lp, i);
                    const auto& global = lean.step_record(gp, i);
                    EXPECT_EQ(comp.global_node[local.node], global.node);
                    EXPECT_EQ(local.orient, global.orient);
                    EXPECT_EQ(local.position, global.position);
                }
                EXPECT_EQ(comp.graph.path_nuc_length(lp), lean.path_nuc_length(gp));
            }
        }
    }
}

TEST(Workloads, WholeGenomeIsDeterministicMultiComponent) {
    const auto a = small_genome(4);
    const auto b = small_genome(4);
    EXPECT_EQ(a.node_count(), b.node_count());
    EXPECT_EQ(a.edge_count(), b.edge_count());
    EXPECT_EQ(a.total_path_steps(), b.total_path_steps());
    EXPECT_EQ(a.validate(), "");
    EXPECT_EQ(decompose_vg(a).count(), 4u);
    // A different seed produces a different genome.
    const auto c = small_genome(4, 999);
    EXPECT_NE(a.edge_count(), c.edge_count());
}

TEST(Stitch, TranslationIsASingleFloatAdd) {
    const auto d = decompose_vg(small_genome(3));
    partition::SchedulerOptions sopt;
    sopt.config = quick_config();
    std::vector<core::Layout> layouts;
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        layouts.push_back(partition::run_component(d.components[c], c, sopt).layout);
    }
    const auto s = partition::stitch(d, layouts);
    ASSERT_EQ(s.layout.size(), d.global_node_count());
    ASSERT_EQ(s.placements.size(), d.count());
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        const auto& p = s.placements[c];
        for (std::size_t i = 0; i < layouts[c].size(); ++i) {
            const graph::NodeId g = d.components[c].global_node[i];
            EXPECT_EQ(s.layout.start_x[g], layouts[c].start_x[i] + p.dx);
            EXPECT_EQ(s.layout.start_y[g], layouts[c].start_y[i] + p.dy);
            EXPECT_EQ(s.layout.end_x[g], layouts[c].end_x[i] + p.dx);
            EXPECT_EQ(s.layout.end_y[g], layouts[c].end_y[i] + p.dy);
        }
    }
}

TEST(Stitch, PlacedBoundingBoxesDoNotOverlap) {
    const auto d = decompose_vg(small_genome(4));
    partition::SchedulerOptions sopt;
    sopt.config = quick_config();
    std::vector<core::Layout> layouts;
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        layouts.push_back(partition::run_component(d.components[c], c, sopt).layout);
    }
    const auto s = partition::stitch(d, layouts);
    for (std::uint32_t a = 0; a < d.count(); ++a) {
        for (std::uint32_t b = a + 1; b < d.count(); ++b) {
            const auto& pa = s.placements[a];
            const auto& pb = s.placements[b];
            const bool separated_x = pa.max_x + pa.dx <= pb.min_x + pb.dx ||
                                     pb.max_x + pb.dx <= pa.min_x + pa.dx;
            const bool separated_y = pa.max_y + pa.dy <= pb.min_y + pb.dy ||
                                     pb.max_y + pb.dy <= pa.min_y + pa.dy;
            EXPECT_TRUE(separated_x || separated_y)
                << "components " << a << " and " << b << " overlap";
        }
    }
}

TEST(Scheduler, ResultsIndependentOfWorkerCount) {
    const auto vg = small_genome(4);
    partition::PartitionOptions popt;
    popt.schedule.config = quick_config();
    popt.schedule.workers = 1;
    const auto serial = partition::partition_layout(decompose_vg(vg), popt);
    popt.schedule.workers = 4;
    const auto parallel = partition::partition_layout(decompose_vg(vg), popt);
    expect_layout_bitwise_equal(serial.stitched.layout, parallel.stitched.layout);
    EXPECT_EQ(serial.updates, parallel.updates);
}

TEST(Scheduler, ProgressHookSeesEveryComponent) {
    const auto vg = small_genome(3);
    partition::PartitionOptions popt;
    popt.schedule.config = quick_config();
    popt.schedule.workers = 2;
    std::vector<std::uint32_t> seen;
    std::uint32_t max_completed = 0;
    popt.progress = [&](const partition::ComponentProgress& p) {
        seen.push_back(p.component);
        max_completed = std::max(max_completed, p.completed);
        EXPECT_EQ(p.total, 3u);
    };
    partition::partition_layout(decompose_vg(vg), popt);
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_EQ(max_completed, 3u);
}

TEST(Scheduler, PathlessComponentGetsDeterministicFallback) {
    // Segments 3 and 4 are joined by an L link only: a component no path
    // walks.
    const auto d = decompose_gfa(
        "S\t1\tACGTACGT\nS\t2\tACGTACGT\nS\t3\tACGTACGT\nS\t4\tACGTACGT\n"
        "P\tp\t1+,2+\t*\nL\t3\t+\t4\t+\t0M\n");
    partition::PartitionOptions popt;
    popt.schedule.config = quick_config();
    const auto a = partition::partition_layout(d, popt);
    const auto b = partition::partition_layout(d, popt);
    ASSERT_EQ(a.decomposition.count(), 2u);
    ASSERT_EQ(a.stitched.layout.size(), 4u);
    expect_layout_bitwise_equal(a.stitched.layout, b.stitched.layout);
}

// The acceptance contract (ISSUE 3): a partitioned whole_genome_spec(4, ...)
// layout is byte-identical to the four standalone per-component layouts
// stitched with the same deterministic packing, for the deterministic CPU
// runs: cpu-soa at 1 thread, cpu-pipelined at 1 and 4 threads.
TEST(PartitionEquivalence, MatchesStandalonePerComponentRuns) {
    const auto vg = small_genome(4);
    const std::pair<const char*, std::uint32_t> runs[] = {
        {"cpu-soa", 1u}, {"cpu-pipelined", 1u}, {"cpu-pipelined", 4u}};
    for (const auto& [backend, threads] : runs) {
        partition::PartitionOptions popt;
        popt.schedule.backend = backend;
        popt.schedule.config = quick_config(threads);
        popt.schedule.workers = 2;
        const auto part = partition::partition_layout(decompose_vg(vg), popt);
        ASSERT_EQ(part.decomposition.count(), 4u);

        // Standalone runs: a fresh engine per component, straight off
        // the registry, seeded exactly as the scheduler seeds them.
        std::vector<core::Layout> standalone;
        for (std::uint32_t c = 0; c < part.decomposition.count(); ++c) {
            auto engine = core::make_engine(backend);
            core::LayoutConfig cfg = popt.schedule.config;
            cfg.seed = partition::component_seed(popt.schedule.config.seed, c);
            engine->init(part.decomposition.components[c].graph, cfg);
            standalone.push_back(engine->run().layout);
            expect_layout_bitwise_equal(
                part.component_results[c].layout, standalone.back());
        }
        const auto restitched =
            partition::stitch(part.decomposition, standalone, popt.stitching);
        expect_layout_bitwise_equal(part.stitched.layout, restitched.layout);
    }
}

}  // namespace
