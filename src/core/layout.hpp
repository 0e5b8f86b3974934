#pragma once
// Layout state for PG-SGD. Each node is drawn as a line segment with a
// start and an end visualization point (paper Sec. II-C); the layout is the
// collection of those 2n points.
//
// All engines share one concrete coordinate store, XYStore: the paper's
// original ODGI organization (Fig. 9a) — a flat X array and a flat Y array,
// element 2*node + end — exposed as raw contiguous float arrays so the
// update kernels (core/kernels/) vectorize over them directly, with
// relaxed-atomic accessors on top for the Hogwild engines' intentionally
// unsynchronized per-term updates. The cache-friendly AoS organization
// (CDL, Fig. 9b; one packed NodeRecord per node) survives as a *modeled*
// layout: memsim/characterize and the GPU simulator replay its address
// stream, parameterized by the NodeRecord shape below, while the functional
// coordinate values — identical under either organization — live in the
// XYStore.
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"
#include "graph/lean_graph.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::core {

/// Endpoint selector for a node's line segment.
enum class End : std::uint8_t { kStart = 0, kEnd = 1 };

/// A plain, storage-agnostic snapshot of a layout (used by metrics, IO and
/// rendering). Index i holds the segment of node i.
struct Layout {
    std::vector<float> start_x, start_y, end_x, end_y;

    std::size_t size() const noexcept { return start_x.size(); }
    void resize(std::size_t n) {
        start_x.resize(n);
        start_y.resize(n);
        end_x.resize(n);
        end_y.resize(n);
    }
};

/// Initializes a layout the way odgi-layout does: nodes are unrolled along
/// one axis by cumulative nucleotide offset (so the initial picture is the
/// linear genome), with small uniform jitter on the other axis to break the
/// 1-D symmetry of the gradient.
template <typename Rng>
Layout make_linear_initial_layout(const graph::LeanGraph& g, Rng& rng,
                                  double jitter_scale = 1.0) {
    Layout l;
    l.resize(g.node_count());
    double x = 0.0;
    double mean_len = 0.0;
    for (std::uint32_t i = 0; i < g.node_count(); ++i) mean_len += g.node_length(i);
    mean_len = g.node_count() ? mean_len / g.node_count() : 1.0;
    const double jitter = jitter_scale * mean_len;
    for (std::uint32_t i = 0; i < g.node_count(); ++i) {
        l.start_x[i] = static_cast<float>(x);
        x += g.node_length(i);
        l.end_x[i] = static_cast<float>(x);
        l.start_y[i] = static_cast<float>((rng.next_double() - 0.5) * jitter);
        l.end_y[i] = static_cast<float>((rng.next_double() - 0.5) * jitter);
    }
    return l;
}

/// The layout an engine starts a run from: cfg.initial_layout when set (a
/// warm start — validated against the graph's node count), otherwise the
/// seeded linear initial layout. Every backend goes through this one
/// function so a warm-started refinement pass means the same thing on all
/// of them, and the init-jitter RNG stream stays identical to the
/// historical per-engine code (seed XOR'd with a fixed salt).
inline Layout make_initial_layout(const graph::LeanGraph& g,
                                  const LayoutConfig& cfg) {
    if (cfg.initial_layout) {
        if (cfg.initial_layout->size() != g.node_count()) {
            throw std::invalid_argument(
                "LayoutConfig::initial_layout holds " +
                std::to_string(cfg.initial_layout->size()) +
                " segments for a graph of " + std::to_string(g.node_count()) +
                " nodes");
        }
        return *cfg.initial_layout;
    }
    rng::Xoshiro256Plus init_rng(cfg.seed ^ 0xa02bdbf7bb3c0a7ULL);
    return make_linear_initial_layout(g, init_rng, cfg.init_jitter);
}

/// The shared flat SoA coordinate store. X layout matches the paper:
/// [sx0, ex0, sx1, ex1, ...], same for Y; index(node, end) = 2*node + end.
///
/// Two access styles, by construction compatible:
///   * x()/y() — the raw contiguous arrays the update kernels (and any
///     single-writer batch consumer) read and write with plain loads and
///     stores;
///   * load_/store_ accessors — relaxed std::atomic_ref views of the same
///     floats, used by the Hogwild engines so their deliberate data races
///     stay defined behaviour.
///
/// Storage is two plain vectors, so copies and moves are the defaulted
/// member-wise ones.
class XYStore {
public:
    XYStore() = default;
    explicit XYStore(const Layout& init) { load(init); }

    void load(const Layout& init) {
        const std::size_t n = init.size();
        xs_.resize(2 * n);
        ys_.resize(2 * n);
        for (std::size_t i = 0; i < n; ++i) {
            xs_[2 * i] = init.start_x[i];
            xs_[2 * i + 1] = init.end_x[i];
            ys_[2 * i] = init.start_y[i];
            ys_[2 * i + 1] = init.end_y[i];
        }
    }

    std::size_t node_count() const noexcept { return xs_.size() / 2; }
    std::size_t coord_count() const noexcept { return xs_.size(); }

    static std::size_t index(std::uint32_t node, End e) noexcept {
        return 2 * static_cast<std::size_t>(node) + static_cast<std::size_t>(e);
    }

    float* x() noexcept { return xs_.data(); }
    float* y() noexcept { return ys_.data(); }
    const float* x() const noexcept { return xs_.data(); }
    const float* y() const noexcept { return ys_.data(); }

    float load_x(std::uint32_t node, End e) const noexcept {
        return std::atomic_ref<const float>(xs_[index(node, e)])
            .load(std::memory_order_relaxed);
    }
    float load_y(std::uint32_t node, End e) const noexcept {
        return std::atomic_ref<const float>(ys_[index(node, e)])
            .load(std::memory_order_relaxed);
    }
    void store_x(std::uint32_t node, End e, float v) noexcept {
        std::atomic_ref<float>(xs_[index(node, e)])
            .store(v, std::memory_order_relaxed);
    }
    void store_y(std::uint32_t node, End e, float v) noexcept {
        std::atomic_ref<float>(ys_[index(node, e)])
            .store(v, std::memory_order_relaxed);
    }

    Layout snapshot() const {
        Layout l;
        const std::size_t n = node_count();
        l.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            l.start_x[i] = xs_[2 * i];
            l.end_x[i] = xs_[2 * i + 1];
            l.start_y[i] = ys_[2 * i];
            l.end_y[i] = ys_[2 * i + 1];
        }
        return l;
    }

private:
    std::vector<float> xs_;
    std::vector<float> ys_;
};

/// Packed per-node record of the cache-friendly data layout (CDL, Fig. 9b).
/// 24 bytes so an aligned pair of records never straddles more than one
/// 64-byte line. The functional engines no longer instantiate this store —
/// it defines the record shape the memory simulators (memsim/characterize,
/// gpusim) model when replaying the CDL address stream.
struct alignas(8) NodeRecord {
    std::uint32_t length;
    std::uint32_t pad;  // keeps the float quartet 8-byte aligned
    float sx, sy, ex, ey;
};

static_assert(sizeof(NodeRecord) == 24);

}  // namespace pgl::core
