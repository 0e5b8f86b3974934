#pragma once
// The batched term pipeline shared by every PG-SGD backend. A TermBatch is
// a plain SoA buffer of sampled stress terms: the CPU workers process one
// batch per slice, the GPU simulator fills one batch per warp step (one
// slot per lane), the tensor backend turns a batch into its gather/scatter
// index tensors, and the memory-characterization replayer walks a batch to
// reproduce the update loop's address stream. All four therefore consume
// the identical term representation instead of private per-term loops.
//
// Invalid (degenerate) terms keep their slot with valid == 0 so that
// slot-indexed consumers (the warp simulator pairs slot k with lane k) see
// holes exactly where the scalar path would have skipped.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sampling.hpp"
#include "core/step_math.hpp"

namespace pgl::core {

/// Minimum terms per TermBatch slice in the pipelined CPU loop: big enough
/// to amortize the buffer bookkeeping and the pool dispatch, small enough
/// that a slice's updates stay hot in L1/L2 before the next slice is
/// sampled.
constexpr std::size_t kBatchSliceTerms = 1024;

struct TermBatch {
    // Sampled path/step identities (needed by the memory-modelling
    // backends, which replay the address stream of the step lookups).
    std::vector<std::uint32_t> path;
    std::vector<std::uint32_t> step_i, step_j;

    // The update's operands: node ids, chosen segment endpoints, reference
    // distance and the coincident-point separation nudge.
    std::vector<std::uint32_t> node_i, node_j;
    std::vector<std::uint8_t> end_i, end_j;
    std::vector<std::uint64_t> pos_i, pos_j;
    std::vector<double> d_ref;
    std::vector<double> nudge;

    std::vector<std::uint8_t> valid;
    std::vector<std::uint8_t> took_cooling;

    std::size_t size() const noexcept { return d_ref.size(); }
    bool empty() const noexcept { return d_ref.empty(); }

    void clear() noexcept {
        invalid_ = 0;
        path.clear();
        step_i.clear();
        step_j.clear();
        node_i.clear();
        node_j.clear();
        end_i.clear();
        end_j.clear();
        pos_i.clear();
        pos_j.clear();
        d_ref.clear();
        nudge.clear();
        valid.clear();
        took_cooling.clear();
    }

    void reserve(std::size_t n) {
        path.reserve(n);
        step_i.reserve(n);
        step_j.reserve(n);
        node_i.reserve(n);
        node_j.reserve(n);
        end_i.reserve(n);
        end_j.reserve(n);
        pos_i.reserve(n);
        pos_j.reserve(n);
        d_ref.reserve(n);
        nudge.reserve(n);
        valid.reserve(n);
        took_cooling.reserve(n);
    }

    /// Appends one sampled term (valid or not) with its update nudge.
    void append(const TermSample& t, double n) {
        path.push_back(t.path);
        step_i.push_back(t.step_i);
        step_j.push_back(t.step_j);
        node_i.push_back(t.node_i);
        node_j.push_back(t.node_j);
        end_i.push_back(static_cast<std::uint8_t>(t.end_i));
        end_j.push_back(static_cast<std::uint8_t>(t.end_j));
        pos_i.push_back(t.pos_i);
        pos_j.push_back(t.pos_j);
        d_ref.push_back(t.d_ref);
        nudge.push_back(n);
        valid.push_back(t.valid ? 1 : 0);
        if (!t.valid) ++invalid_;
        took_cooling.push_back(t.took_cooling ? 1 : 0);
    }

    /// Pre-sizes exactly the columns core::apply_batch reads and empties
    /// the replay columns — the shape fill_batch_staged writes by index.
    /// Reuses capacity, so a double-buffered pipeline allocates only on its
    /// first slice. Every slot's validity must subsequently be set exactly
    /// once through mark_valid()/mark_invalid() so the running invalid
    /// counter stays exact.
    void resize_apply_only(std::size_t n) {
        invalid_ = 0;
        node_i.resize(n);
        node_j.resize(n);
        end_i.resize(n);
        end_j.resize(n);
        d_ref.resize(n);
        nudge.resize(n);
        valid.resize(n);
        path.clear();
        step_i.clear();
        step_j.clear();
        pos_i.clear();
        pos_j.clear();
        took_cooling.clear();
    }

    End end_i_of(std::size_t k) const noexcept { return static_cast<End>(end_i[k]); }
    End end_j_of(std::size_t k) const noexcept { return static_cast<End>(end_j[k]); }

    /// Validity writers for the index-filling path (after
    /// resize_apply_only); append() maintains the counter itself.
    void mark_valid(std::size_t k) noexcept { valid[k] = 1; }
    void mark_invalid(std::size_t k) noexcept {
        valid[k] = 0;
        ++invalid_;
    }

    /// Holes in the batch (valid == 0 slots) — a running counter, not a
    /// rescan, so per-warp/per-slice consumers may query it for free.
    std::uint64_t invalid_count() const noexcept { return invalid_; }

private:
    std::uint64_t invalid_ = 0;
};

template <typename Rng>
std::uint64_t PairSampler::fill_batch(bool cooling_iter, Rng& rng, std::size_t n,
                                      TermBatch& out, bool with_nudge) const {
    std::uint64_t skipped = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const TermSample t = sample(cooling_iter, rng);
        double nd = 0.0;
        if (!t.valid) {
            ++skipped;
        } else if (with_nudge) {
            nd = draw_nudge(rng);
        }
        out.append(t, nd);
    }
    return skipped;
}

template <typename Rng>
std::uint64_t PairSampler::fill_batch_staged(bool cooling_iter, Rng& rng,
                                             std::size_t n,
                                             TermBatch& out) const {
    out.resize_apply_only(n);
    const auto offsets = g_->path_offsets();
    const auto records = g_->step_records();
    const auto lengths = g_->node_lengths();

    constexpr std::size_t kBlock = 64;
    struct Staged {
        std::uint64_t flat_i, flat_j;
        std::uint8_t end_i, end_j;
        bool alive;
    };
    Staged stage[kBlock];

    std::uint64_t skipped = 0;
    for (std::size_t base = 0; base < n; base += kBlock) {
        const std::size_t m = std::min(kBlock, n - base);

        // Stage 1: per-term PRNG draws (alias path, steps, cooling branch,
        // endpoint coins — the exact per-term logic of sample_branch) plus
        // a prefetch of both packed step records. The cold record loads of
        // the whole block overlap instead of serializing term by term.
        for (std::size_t b = 0; b < m; ++b) {
            Staged& st = stage[b];
            st.alive = false;
            const std::uint32_t path = path_alias_(rng);
            const std::uint32_t n_steps = offsets[path + 1] - offsets[path];
            if (n_steps < 2) continue;
            const auto step_i =
                static_cast<std::uint32_t>(rng.next_bounded(n_steps));
            std::uint32_t step_j;
            if (cooling_iter || rng.flip_coin()) {
                // Zipf-distributed hop in a random direction, reflected at
                // the path ends so every step can reach a partner.
                const std::uint64_t hop = zipf_(hop_space(n_steps), rng);
                std::int64_t j = static_cast<std::int64_t>(step_i);
                j += rng.flip_coin() ? static_cast<std::int64_t>(hop)
                                     : -static_cast<std::int64_t>(hop);
                if (j < 0) j = -j;
                const std::int64_t last = static_cast<std::int64_t>(n_steps) - 1;
                if (j > last) j = 2 * last - j;
                if (j < 0) j = 0;  // extremely short path + long hop
                step_j = static_cast<std::uint32_t>(j);
            } else {
                step_j = static_cast<std::uint32_t>(rng.next_bounded(n_steps));
            }
            if (step_j == step_i) continue;
            st.end_i = rng.flip_coin() ? 0 : 1;
            st.end_j = rng.flip_coin() ? 0 : 1;
            st.flat_i = offsets[path] + step_i;
            st.flat_j = offsets[path] + step_j;
            st.alive = true;
            __builtin_prefetch(&records[st.flat_i], 0, 1);
            __builtin_prefetch(&records[st.flat_j], 0, 1);
        }

        // Stage 2a: read the records (resident by now) and prefetch the
        // node-length entries they point at — the second-level dependent
        // loads stage 1 could not know about.
        for (std::size_t b = 0; b < m; ++b) {
            if (!stage[b].alive) continue;
            __builtin_prefetch(&lengths[records[stage[b].flat_i].node], 0, 1);
            __builtin_prefetch(&lengths[records[stage[b].flat_j].node], 0, 1);
        }

        // Stage 2b: finalize — endpoint positions, d_ref, validity — and
        // write the update columns, drawing one nudge per valid term.
        for (std::size_t b = 0; b < m; ++b) {
            const std::size_t k = base + b;
            const Staged& st = stage[b];
            if (!st.alive) {
                out.mark_invalid(k);
                ++skipped;
                continue;
            }
            const graph::PathStepRecord& ri = records[st.flat_i];
            const graph::PathStepRecord& rj = records[st.flat_j];
            const std::uint64_t pos_i = endpoint_path_position(
                ri.position, lengths[ri.node], ri.orient != 0,
                static_cast<End>(st.end_i));
            const std::uint64_t pos_j = endpoint_path_position(
                rj.position, lengths[rj.node], rj.orient != 0,
                static_cast<End>(st.end_j));
            const std::uint64_t d =
                pos_i > pos_j ? pos_i - pos_j : pos_j - pos_i;
            if (d == 0) {
                out.mark_invalid(k);
                ++skipped;
                continue;
            }
            out.node_i[k] = ri.node;
            out.node_j[k] = rj.node;
            out.end_i[k] = st.end_i;
            out.end_j[k] = st.end_j;
            out.d_ref[k] = static_cast<double>(d);
            out.nudge[k] = draw_nudge(rng);
            out.mark_valid(k);
        }
    }
    return skipped;
}

}  // namespace pgl::core
