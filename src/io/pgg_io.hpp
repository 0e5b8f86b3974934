#pragma once
// Versioned binary graph cache (".pgg") — the ingest analogue of the ".lay"
// layout files: parse a whole-genome GFA once, cache the engine-ready
// LeanGraph plus the partition-ready component labels, and every later
// layout run skips GFA parsing entirely.
//
// Format (all integers little-endian):
//   magic   "PGLPGG01"                     (8 bytes; version in the magic)
//   u32     flags                          (bit 0: segment names present)
//   u64     node_count
//   u64     path_count
//   u64     total_steps
//   u32     component_count
//   node_count  x u32   node lengths
//   node_count  x u32   node -> component labels
//   [flags&1]   per node:  u32 name_len, name bytes
//   per path:   u32 name_len, name bytes, u32 step_count, u32 component
//   total_steps x u32   packed step records (Handle::packed, path-major)
//   u64     FNV-1a 64 checksum over every byte after the magic
//
// Step positions are NOT stored: the reader replays the packed steps
// through LeanGraphBuilder, so cumulative positions are recomputed exactly
// as GFA ingestion computes them and a cached graph is bit-identical to a
// fresh parse — the byte-equivalence ctest locks this in.
#include <iosfwd>
#include <string>

#include "graph/gfa_stream.hpp"

namespace pgl::io {

void write_pgg(const graph::LeanIngest& g, std::ostream& out);
void write_pgg_file(const graph::LeanIngest& g, const std::string& path);

/// Throws std::runtime_error on bad magic, truncated data, implausible
/// header counts (including more components than nodes), a step whose
/// node is labeled with a component other than its path's, or checksum
/// mismatch.
graph::LeanIngest read_pgg(std::istream& in);
graph::LeanIngest read_pgg_file(const std::string& path);

/// True when `path` names a graph cache (".pgg" extension).
bool is_pgg_path(const std::string& path);

/// Ingestion front door used by tools: ".pgg" files load through read_pgg,
/// anything else streams through graph::ingest_gfa_file.
graph::LeanIngest load_graph_file(const std::string& path);

}  // namespace pgl::io
