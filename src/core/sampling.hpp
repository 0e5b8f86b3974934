#pragma once
// Node-pair sampling for PG-SGD (Alg. 1 lines 5-13): pick a path with
// probability proportional to its step count, then a pair of steps on it —
// uniformly in the exploration phase, Zipf-distributed hop distance in the
// cooling phase — then a random endpoint of each node's segment.
//
// This sampler is shared by every backend (CPU engine, GPU simulator,
// tensor implementation, memory-characterization replayer) so that all of
// them draw terms from the identical distribution.
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/layout.hpp"
#include "graph/lean_graph.hpp"
#include "rng/alias_table.hpp"
#include "rng/zipf.hpp"

namespace pgl::core {

struct TermBatch;  // core/term_batch.hpp — the shared batched term buffer

/// One sampled stress term: two steps on one path plus chosen endpoints and
/// the reference (path-nucleotide) distance between the chosen points.
struct TermSample {
    std::uint32_t path;
    std::uint32_t step_i, step_j;
    std::uint32_t node_i, node_j;
    End end_i, end_j;
    std::uint64_t pos_i, pos_j;  ///< path-space positions of the endpoints
    double d_ref;
    bool valid;         ///< false when the term degenerates (d_ref == 0 etc.)
    bool took_cooling;  ///< which branch of Alg. 1 line 7 was taken
};

/// Path-space position of the chosen endpoint of a step: a forward step's
/// segment start sits at the step offset and its end at offset + length;
/// a reverse-complement step swaps the two.
inline std::uint64_t endpoint_path_position(std::uint64_t step_pos,
                                            std::uint32_t node_len,
                                            bool step_reverse, End e) noexcept {
    const bool at_end = (e == End::kEnd);
    return (at_end != step_reverse) ? step_pos + node_len : step_pos;
}

class PairSampler {
public:
    /// Throws std::invalid_argument unless cfg.zipf_theta is finite and > 0.
    PairSampler(const graph::LeanGraph& g, const LayoutConfig& cfg)
        : g_(&g), zipf_(hop_space_max(g, cfg), cfg.zipf_theta) {
        std::vector<double> weights(g.path_count());
        for (std::uint32_t p = 0; p < g.path_count(); ++p) {
            weights[p] = static_cast<double>(g.path_step_count(p));
        }
        path_alias_.build(weights);
    }

    const graph::LeanGraph& graph() const noexcept { return *g_; }

    /// Draws one term. `cooling_iter` is the Alg. 1 line 6 predicate for the
    /// current iteration (iter >= N_iters/2); the per-step coin flip is
    /// drawn here. `Rng` must provide next(), next_double(), next_bounded(),
    /// flip_coin().
    template <typename Rng>
    TermSample sample(bool cooling_iter, Rng& rng) const {
        const bool cooling = cooling_iter || rng.flip_coin();
        return sample_branch(cooling, rng);
    }

    /// Draws one term with the cooling/non-cooling branch already decided —
    /// the warp-merging kernel decides it once per warp (Sec. V-B3) instead
    /// of per thread.
    template <typename Rng>
    TermSample sample_branch(bool cooling, Rng& rng) const {
        TermSample t{};
        t.took_cooling = cooling;
        t.path = path_alias_(rng);
        const std::uint32_t n_steps = g_->path_step_count(t.path);
        if (n_steps < 2) {
            t.valid = false;
            return t;
        }

        t.step_i = static_cast<std::uint32_t>(rng.next_bounded(n_steps));
        if (cooling) {
            // Zipf-distributed hop in a random direction, reflected at the
            // path ends so every step can reach a partner.
            const std::uint64_t hop = zipf_(hop_space(n_steps), rng);
            std::int64_t j = static_cast<std::int64_t>(t.step_i);
            j += rng.flip_coin() ? static_cast<std::int64_t>(hop)
                                 : -static_cast<std::int64_t>(hop);
            if (j < 0) j = -j;
            const std::int64_t last = static_cast<std::int64_t>(n_steps) - 1;
            if (j > last) j = 2 * last - j;
            if (j < 0) j = 0;  // extremely short path + long hop
            t.step_j = static_cast<std::uint32_t>(j);
        } else {
            t.step_j = static_cast<std::uint32_t>(rng.next_bounded(n_steps));
        }
        if (t.step_j == t.step_i) {
            t.valid = false;
            return t;
        }

        const graph::PathStepRecord& ri = g_->step_record(t.path, t.step_i);
        const graph::PathStepRecord& rj = g_->step_record(t.path, t.step_j);
        t.node_i = ri.node;
        t.node_j = rj.node;
        t.end_i = rng.flip_coin() ? End::kStart : End::kEnd;
        t.end_j = rng.flip_coin() ? End::kStart : End::kEnd;

        t.pos_i = endpoint_path_position(ri.position, g_->node_length(ri.node),
                                         ri.orient != 0, t.end_i);
        t.pos_j = endpoint_path_position(rj.position, g_->node_length(rj.node),
                                         rj.orient != 0, t.end_j);
        const std::uint64_t d = t.pos_i > t.pos_j ? t.pos_i - t.pos_j
                                                  : t.pos_j - t.pos_i;
        if (d == 0) {
            t.valid = false;
            return t;
        }
        t.d_ref = static_cast<double>(d);
        t.valid = true;
        return t;
    }

    /// Draws up to `n` terms into `out` (appending; invalid terms keep
    /// their slot with valid == 0) and returns how many were degenerate.
    /// When `with_nudge` is set, one extra uniform draw per *valid* term
    /// produces the coincident-point nudge — consuming the PRNG stream
    /// exactly as the Hogwild CPU update loop does, so a batched replay
    /// with the same seed sees the identical term-and-nudge sequence.
    /// Defined in core/term_batch.hpp.
    template <typename Rng>
    std::uint64_t fill_batch(bool cooling_iter, Rng& rng, std::size_t n,
                             TermBatch& out, bool with_nudge = true) const;

    /// Staged, prefetching fill used by the pipelined engine's producers.
    /// Per block of 64 terms: stage 1 performs every PRNG draw (whose
    /// sequence never depends on the cold step lookups) and prefetches the
    /// packed 16-byte step records; stage 2 reads the now-resident records
    /// and finalizes d_ref/validity, drawing the per-valid-term nudge.
    /// Draws the identical term distribution as sample() — same alias/Zipf/
    /// coin logic per term — but consumes the PRNG in blocked order, so the
    /// stream differs from fill_batch's while remaining fully deterministic
    /// for a fixed (seed, stream). Writes only the columns the update
    /// kernel reads (node/end/d_ref/nudge/valid); the replay columns stay
    /// empty. Defined in core/term_batch.hpp.
    template <typename Rng>
    std::uint64_t fill_batch_staged(bool cooling_iter, Rng& rng, std::size_t n,
                                    TermBatch& out) const;

private:
    /// The largest hop space of any path: steps - 1, capped by
    /// zipf_space_max when that is nonzero, and at least 1.
    static std::uint64_t hop_space_max(const graph::LeanGraph& g,
                                       const LayoutConfig& cfg) {
        std::uint64_t space = 1;
        for (std::uint32_t p = 0; p < g.path_count(); ++p) {
            const std::uint64_t n = g.path_step_count(p);
            if (n > space + 1) space = n - 1;
        }
        if (cfg.zipf_space_max > 0 && space > cfg.zipf_space_max) {
            space = cfg.zipf_space_max;
        }
        return space;
    }

    /// Hop space of a path of `n_steps` >= 2 steps. Capping by the table
    /// size equals capping by zipf_space_max: the table is exactly as large
    /// as the longest capped space.
    std::uint64_t hop_space(std::uint32_t n_steps) const noexcept {
        const std::uint64_t space = n_steps - 1;
        return space < zipf_.max_n() ? space : zipf_.max_n();
    }

    const graph::LeanGraph* g_;
    rng::AliasTable path_alias_;
    rng::ZipfTable zipf_;
};

}  // namespace pgl::core
