// Tests for core::apply_batch (core/apply_batch.hpp): the apply_term_slots
// reference loop, and byte-equivalence of both apply paths (AVX2 where the
// CPU supports it, and the scalar fallback) to it — including the
// lane-group conflict fallback, intra-term duplicates, coincident points,
// holes and all-invalid batches.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/apply_batch.hpp"
#include "core/sampling.hpp"
#include "core/term_batch.hpp"
#include "graph/lean_graph.hpp"
#include "rng/xoshiro256.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using core::End;
using core::TermBatch;
using core::TermSample;
using core::XYStore;

graph::LeanGraph small_graph(std::uint64_t backbone = 200, std::uint32_t paths = 4,
                             std::uint64_t seed = 5) {
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = backbone;
    spec.n_paths = paths;
    spec.seed = seed;
    return graph::LeanGraph::from_graph(workloads::generate_pangenome(spec));
}

/// A random store over `nodes` nodes with coordinates in a plausible range.
XYStore random_store(std::uint32_t nodes, std::uint64_t seed) {
    core::Layout l;
    l.resize(nodes);
    rng::Xoshiro256Plus rng(seed);
    for (std::uint32_t i = 0; i < nodes; ++i) {
        l.start_x[i] = static_cast<float>(rng.next_double() * 1000.0);
        l.start_y[i] = static_cast<float>(rng.next_double() * 1000.0 - 500.0);
        l.end_x[i] = static_cast<float>(rng.next_double() * 1000.0);
        l.end_y[i] = static_cast<float>(rng.next_double() * 1000.0 - 500.0);
    }
    return XYStore(l);
}

/// Appends one hand-built valid term.
void push_term(TermBatch& b, std::uint32_t ni, End ei, std::uint32_t nj, End ej,
               double d_ref, double nudge) {
    TermSample t{};
    t.node_i = ni;
    t.node_j = nj;
    t.end_i = ei;
    t.end_j = ej;
    t.d_ref = d_ref;
    t.valid = true;
    b.append(t, nudge);
}

/// Appends one hole (valid == 0 slot) whose columns still hold in-bounds
/// node ids, as every fill path guarantees.
void push_hole(TermBatch& b, std::uint32_t stale_node = 0) {
    TermSample t{};
    t.node_i = stale_node;
    t.node_j = stale_node;
    t.valid = false;
    b.append(t, 0.0);
}

void expect_stores_identical(const XYStore& a, const XYStore& b) {
    ASSERT_EQ(a.coord_count(), b.coord_count());
    // Byte comparison: -0.0 vs 0.0 or differently-rounded lanes must fail.
    EXPECT_EQ(std::memcmp(a.x(), b.x(), a.coord_count() * sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(a.y(), b.y(), a.coord_count() * sizeof(float)), 0);
}

// --- apply_term_slots is the chained reference loop ---

TEST(ApplyTermSlots, MatchesHandRolledChainedLoop) {
    const auto g = small_graph(150, 3);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(17);
    TermBatch b;
    sampler.fill_batch(false, rng, 2000, b);

    auto store_a = random_store(static_cast<std::uint32_t>(g.node_count()), 1);
    auto store_b = store_a;

    core::apply_term_slots(b, 0, b.size(), 0.1, store_a.x(), store_a.y());

    float* x = store_b.x();
    float* y = store_b.y();
    for (std::size_t k = 0; k < b.size(); ++k) {
        if (!b.valid[k]) continue;
        const std::size_t ii = XYStore::index(b.node_i[k], b.end_i_of(k));
        const std::size_t jj = XYStore::index(b.node_j[k], b.end_j_of(k));
        const float xi = x[ii], yi = y[ii], xj = x[jj], yj = y[jj];
        const auto d =
            core::sgd_term_update(xi, yi, xj, yj, b.d_ref[k], 0.1, b.nudge[k]);
        x[ii] = xi + d.dx_i;
        y[ii] = yi + d.dy_i;
        x[jj] = xj + d.dx_j;
        y[jj] = yj + d.dy_j;
    }
    expect_stores_identical(store_a, store_b);
}

// --- Path dispatch ---

TEST(KernelIsa, DetectedIsaFollowsTheCpu) {
    const core::KernelIsa isa = core::detected_kernel_isa();
    EXPECT_TRUE(core::kernel_isa_supported(isa));
    EXPECT_TRUE(core::kernel_isa_supported(core::KernelIsa::kScalarFallback));
#if defined(__x86_64__)
    EXPECT_EQ(isa == core::KernelIsa::kAvx2,
              static_cast<bool>(__builtin_cpu_supports("avx2")));
#else
    EXPECT_EQ(isa, core::KernelIsa::kScalarFallback);
#endif
    EXPECT_STREQ(core::kernel_isa_name(core::KernelIsa::kAvx2), "avx2");
    EXPECT_STREQ(core::kernel_isa_name(core::KernelIsa::kScalarFallback),
                 "scalar-fallback");
}

TEST(KernelIsa, UnsupportedIsaIsRejected) {
    if (core::kernel_isa_supported(core::KernelIsa::kAvx2)) {
        GTEST_SKIP() << "this CPU supports every path";
    }
    TermBatch b;
    auto store = random_store(4, 1);
    EXPECT_THROW(core::apply_batch_with(core::KernelIsa::kAvx2, b, 1.0, store),
                 std::invalid_argument);
}

/// Every kernel-level case below runs once per apply path and must match
/// the apply_term_slots reference byte for byte.
class ApplyBatchIsa : public ::testing::TestWithParam<core::KernelIsa> {
protected:
    void SetUp() override {
        if (!core::kernel_isa_supported(GetParam())) {
            GTEST_SKIP() << core::kernel_isa_name(GetParam())
                         << " is not supported by this CPU";
        }
    }

    /// Applies `b` through the reference loop and the parameter's path,
    /// starting from the same store, and compares the bytes.
    void expect_matches_reference(const TermBatch& b, double eta,
                                  const XYStore& start) const {
        auto reference = start;
        auto lanes = start;
        core::apply_term_slots(b, 0, b.size(), eta, reference.x(),
                               reference.y());
        core::apply_batch_with(GetParam(), b, eta, lanes);
        expect_stores_identical(reference, lanes);
    }
};

INSTANTIATE_TEST_SUITE_P(
    LaneWidths, ApplyBatchIsa,
    ::testing::Values(core::KernelIsa::kAvx2, core::KernelIsa::kScalarFallback),
    [](const ::testing::TestParamInfo<core::KernelIsa>& info) {
        std::string name = core::kernel_isa_name(info.param);
        for (char& c : name) {
            if (c == '-') c = '_';
        }
        return name;
    });

TEST_P(ApplyBatchIsa, MatchesReferenceOnSampledBatches) {
    const auto g = small_graph(300, 5);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    const auto vector_groups =
        telemetry::Registry::instance().counter("kernel.simd.vector_groups");
    const std::uint64_t groups_before = vector_groups.value();

    rng::Xoshiro256Plus rng(23);
    // Sizes straddle the lane width: remainders of 1..3 exercise the tail.
    for (const std::size_t n : {1u, 2u, 3u, 5u, 64u, 1021u, 4096u}) {
        TermBatch b;
        sampler.fill_batch(true, rng, n, b);
        expect_matches_reference(
            b, 0.25,
            random_store(static_cast<std::uint32_t>(g.node_count()), 7 + n));
    }
#ifndef PGL_TELEMETRY_DISABLED
    // The AVX2 path really ran its lanes on these near-conflict-free
    // batches, not only the fallback loop.
    if (GetParam() != core::KernelIsa::kScalarFallback) {
        EXPECT_GT(vector_groups.value(), groups_before);
    }
#else
    (void)groups_before;
#endif
}

TEST_P(ApplyBatchIsa, ConflictGroupsFallBackToChainedOrder) {
    // Every slot touches node 3 or node 4: every 4-wide lane group has duplicate coordinates across different slots, so the vector path
    // must detect the conflict and chain — a wrong kernel that gathers
    // stale coordinates diverges immediately because the terms are designed
    // to move the same points repeatedly.
    TermBatch b;
    rng::Xoshiro256Plus rng(99);
    for (int k = 0; k < 257; ++k) {
        const std::uint32_t ni = 3 + (k % 2);
        const std::uint32_t nj = 3 + ((k + 1) % 2);
        push_term(b, ni, k % 4 < 2 ? End::kStart : End::kEnd, nj,
                  k % 3 ? End::kEnd : End::kStart, 1.0 + (k % 7),
                  core::draw_nudge(rng));
    }
    expect_matches_reference(b, 0.5, random_store(16, 2024));
}

TEST_P(ApplyBatchIsa, IntraTermDuplicateEndpointNeedsNoFallback) {
    // One term may legally reference the same coordinate twice (two steps
    // of one node, same end — d_ref comes from path positions, not
    // coordinates). The second store must win, exactly as in the scalar
    // order. Interleave such terms with ordinary ones so vector groups mix
    // both shapes.
    TermBatch b;
    rng::Xoshiro256Plus rng(5);
    for (int k = 0; k < 64; ++k) {
        if (k % 3 == 0) {
            const std::uint32_t n = 10 + (k % 17);
            push_term(b, n, End::kStart, n, End::kStart, 5.0 + k,
                      core::draw_nudge(rng));
        } else {
            push_term(b, 40 + (k % 20), End::kEnd, 70 + (k % 25), End::kStart,
                      2.0 + k, core::draw_nudge(rng));
        }
    }
    expect_matches_reference(b, 0.3, random_store(128, 31));
}

TEST_P(ApplyBatchIsa, CoincidentPointsTakeTheNudgeBranchIdentically) {
    // Terms whose endpoints start at identical coordinates hit the
    // mag < 1e-9 branch; the vector blend must reproduce the scalar's
    // nudge/abs arithmetic bit for bit (including negative nudges).
    core::Layout l;
    l.resize(32);
    for (std::uint32_t i = 0; i < 32; ++i) {
        l.start_x[i] = 100.0f;
        l.start_y[i] = -3.5f;
        l.end_x[i] = 100.0f;
        l.end_y[i] = -3.5f;
    }
    TermBatch b;
    rng::Xoshiro256Plus rng(77);
    for (int k = 0; k < 33; ++k) {
        push_term(b, static_cast<std::uint32_t>(k % 16), End::kStart,
                  static_cast<std::uint32_t>(16 + k % 16), End::kEnd, 10.0,
                  core::draw_nudge(rng));
    }
    expect_matches_reference(b, 2.0, XYStore(l));
}

TEST_P(ApplyBatchIsa, HolesAreSkippedUntouched) {
    TermBatch b;
    rng::Xoshiro256Plus rng(13);
    // Holes in every lane position, including a whole group of them.
    for (int k = 0; k < 97; ++k) {
        if (k % 4 == 1 || (k >= 40 && k < 48)) {
            push_hole(b, static_cast<std::uint32_t>(k % 50));
        } else {
            push_term(b, static_cast<std::uint32_t>(k % 50), End::kStart,
                      static_cast<std::uint32_t>(50 + k % 40), End::kEnd,
                      3.0 + (k % 11), core::draw_nudge(rng));
        }
    }
    EXPECT_GT(b.invalid_count(), 0u);
    expect_matches_reference(b, 0.7, random_store(128, 44));
}

TEST_P(ApplyBatchIsa, AllInvalidBatchIsANoOp) {
    TermBatch b;
    for (int k = 0; k < 130; ++k) push_hole(b, static_cast<std::uint32_t>(k % 8));
    EXPECT_EQ(b.invalid_count(), 130u);
    const auto reference = random_store(16, 3);
    auto store = reference;
    core::apply_batch_with(GetParam(), b, 1.0, store);
    expect_stores_identical(store, reference);
}

// --- TermBatch running invalid counter (O(1) invalid_count) ---

TEST(TermBatch, InvalidCountTracksAppendsAndClear) {
    const auto g = small_graph(250, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(8);
    TermBatch b;
    const std::uint64_t skipped = sampler.fill_batch(false, rng, 5000, b);
    std::uint64_t recount = 0;
    for (std::size_t k = 0; k < b.size(); ++k) recount += b.valid[k] == 0;
    EXPECT_EQ(b.invalid_count(), recount);
    EXPECT_EQ(b.invalid_count(), skipped);
    b.clear();
    EXPECT_EQ(b.invalid_count(), 0u);
}

TEST(TermBatch, InvalidCountTracksStagedFills) {
    const auto g = small_graph(250, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(9);
    TermBatch b;
    for (int round = 0; round < 3; ++round) {
        // Each staged fill resizes and remarks every slot; the counter must
        // reset per fill, not accumulate across reuses of the buffer.
        const std::uint64_t skipped =
            sampler.fill_batch_staged(round % 2 == 0, rng, 3000, b);
        std::uint64_t recount = 0;
        for (std::size_t k = 0; k < b.size(); ++k) recount += b.valid[k] == 0;
        EXPECT_EQ(b.invalid_count(), recount) << round;
        EXPECT_EQ(b.invalid_count(), skipped) << round;
    }
}

}  // namespace
