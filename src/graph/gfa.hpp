#pragma once
// GFA v1 writer for variation graphs — the interchange format of the
// pangenome toolchain (odgi, vg, pggb). Reading goes through the streaming
// reader in graph/gfa_stream.hpp, which builds the layout-ready LeanGraph
// directly; this header only serializes generated rich graphs.
#include <iosfwd>
#include <string>

#include "graph/variation_graph.hpp"

namespace pgl::graph {

/// Writes GFA v1. Segments are named by their 1-based decimal id, an empty
/// sequence is written as "*"; links use overlap 0M, paths use '*'
/// overlaps.
void write_gfa(const VariationGraph& g, std::ostream& out);

void write_gfa_file(const VariationGraph& g, const std::string& path);

}  // namespace pgl::graph
