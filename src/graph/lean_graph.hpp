#pragma once
// The lean, layout-only distillation of a variation graph (paper Sec. V-A):
// only the fields PG-SGD touches survive — node lengths (never sequence
// content) and, per path step, the node id, orientation and nucleotide
// offset within the path. This doubles as the path index (the ".xp" file of
// the odgi pipeline): reference distances d_ref are differences of the
// per-step nucleotide positions stored here.
//
// Each step is stored once, as the packed 16-byte record of the paper's
// cache-friendly data layout (Sec. V-B1): one load fetches the node id,
// orientation and position of a step. The original ODGI-style form (three
// parallel arrays) survives only as an address model in memsim/gpusim,
// which replay both layouts' access streams without storing either.
#include <cstdint>
#include <span>
#include <vector>

#include "graph/variation_graph.hpp"

namespace pgl::graph {

/// Packed per-step record (the cache-friendly layout).
/// 16 bytes: a whole record fits in a quarter cache line, so one access
/// fetches everything an update step needs about the step.
struct PathStepRecord {
    std::uint32_t node;      ///< node id
    std::uint32_t orient;    ///< 0 = forward, 1 = reverse
    std::uint64_t position;  ///< nucleotide offset of this step in its path
};

static_assert(sizeof(PathStepRecord) == 16);

class LeanGraph {
public:
    static LeanGraph from_graph(const VariationGraph& g);

    /// Builds a lean graph directly from node lengths and path walks,
    /// bypassing the rich VariationGraph: node ids are the indices into
    /// `node_lengths`. Both factories run through LeanGraphBuilder, so a
    /// walk yields the same step records by every route.
    static LeanGraph from_parts(const std::vector<std::uint32_t>& node_lengths,
                                const std::vector<std::vector<Handle>>& paths);

    std::uint32_t node_count() const noexcept {
        return static_cast<std::uint32_t>(node_len_.size());
    }
    std::uint32_t path_count() const noexcept {
        return static_cast<std::uint32_t>(path_offset_.size() - 1);
    }

    std::uint32_t node_length(NodeId id) const { return node_len_[id]; }
    std::span<const std::uint32_t> node_lengths() const noexcept { return node_len_; }

    /// Number of steps in path p.
    std::uint32_t path_step_count(std::uint32_t p) const {
        return path_offset_[p + 1] - path_offset_[p];
    }
    /// Nucleotide length of path p.
    std::uint64_t path_nuc_length(std::uint64_t p) const { return path_nuc_len_[p]; }

    std::uint64_t total_path_steps() const noexcept { return step_records_.size(); }
    std::uint64_t total_path_nucleotides() const noexcept { return total_path_nuc_; }

    /// Longest reference distance appearing in any path (used to scale the
    /// SGD learning-rate schedule).
    std::uint64_t max_path_nuc_length() const noexcept { return max_path_nuc_len_; }

    /// Step i of path p.
    const PathStepRecord& step_record(std::uint32_t p, std::uint32_t i) const {
        return step_records_[path_offset_[p] + i];
    }

    /// Flat index of step i of path p (for address-stream instrumentation).
    std::uint64_t flat_step_index(std::uint32_t p, std::uint32_t i) const {
        return path_offset_[p] + i;
    }

    std::span<const std::uint32_t> path_offsets() const noexcept { return path_offset_; }
    std::span<const PathStepRecord> step_records() const noexcept {
        return step_records_;
    }

private:
    friend class LeanGraphBuilder;

    std::vector<std::uint32_t> node_len_;

    // CSR-style flattened paths.
    std::vector<std::uint32_t> path_offset_;    // size P + 1
    std::vector<PathStepRecord> step_records_;  // path-major

    std::vector<std::uint64_t> path_nuc_len_;
    std::uint64_t total_path_nuc_ = 0;
    std::uint64_t max_path_nuc_len_ = 0;
};

/// Incremental LeanGraph construction for streaming ingestion: nodes are
/// registered as their lengths become known (S records), then paths are fed
/// one step at a time (P walks / W walks / cached step tables) without ever
/// materializing a per-path Handle vector, let alone a VariationGraph.
/// from_graph(), from_parts() and the partition slicer build through it
/// too, so every route yields bit-identical step records for a walk.
class LeanGraphBuilder {
public:
    LeanGraphBuilder() { g_.path_offset_.push_back(0); }

    /// Registers a node of the given nucleotide length; ids are dense,
    /// assigned in call order starting at 0.
    NodeId add_node(std::uint32_t length);

    void reserve_nodes(std::size_t n) { g_.node_len_.reserve(n); }
    void reserve_paths(std::size_t n);
    void reserve_steps(std::uint64_t n) { g_.step_records_.reserve(n); }

    /// Starts a new path; steps are appended with add_step until end_path.
    void begin_path();
    /// Appends one oriented step; h.id() must be a registered node.
    void add_step(Handle h);
    /// Finishes the current path; returns its step count.
    std::uint32_t end_path();

    std::uint32_t node_count() const noexcept { return g_.node_count(); }
    std::uint32_t path_count() const noexcept {
        return static_cast<std::uint32_t>(g_.path_nuc_len_.size());
    }
    std::uint64_t current_path_steps() const noexcept {
        return g_.step_records_.size() - g_.path_offset_.back();
    }

    /// Extracts the finished graph; the builder must not be reused after.
    LeanGraph finish();

private:
    LeanGraph g_;
    std::uint64_t pos_ = 0;
    bool in_path_ = false;
};

}  // namespace pgl::graph
