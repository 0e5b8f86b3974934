#include "graph/gfa_stream.hpp"

#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/union_find.hpp"

namespace pgl::graph {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
    std::ostringstream os;
    os << "GFA parse error at line " << line_no << ": " << what;
    throw std::runtime_error(os.str());
}

/// Heterogeneous-lookup segment-name table: find() takes the string_view
/// tokens of the current line without allocating a lookup key per step.
struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
    }
};
struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept {
        return a == b;
    }
};
using NameTable = std::unordered_map<std::string, NodeId, SvHash, SvEq>;

/// Strips the trailing '\r' of a CRLF line ending plus any trailing spaces
/// or tabs, so Windows-edited GFAs tokenize identically to Unix ones.
void chomp(std::string& line) {
    std::size_t n = line.size();
    while (n > 0 && (line[n - 1] == '\r' || line[n - 1] == ' ' || line[n - 1] == '\t')) {
        --n;
    }
    line.resize(n);
}

std::vector<std::string_view> split_tabs(std::string_view line) {
    std::vector<std::string_view> fields;
    std::size_t start = 0;
    while (start <= line.size()) {
        const std::size_t tab = line.find('\t', start);
        if (tab == std::string_view::npos) {
            fields.push_back(line.substr(start));
            break;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
    return fields;
}

/// Walks a GFA 1.0 `P` segment list ("s1+,s2-,..."), invoking
/// `fn(name, is_reverse)` per step. Returns a description of the first
/// malformed token, empty on success.
template <typename Fn>
std::string for_each_p_step(std::string_view steps, Fn&& fn) {
    std::size_t start = 0;
    while (start < steps.size()) {
        std::size_t comma = steps.find(',', start);
        if (comma == std::string_view::npos) comma = steps.size();
        const std::string_view tok = steps.substr(start, comma - start);
        if (tok.size() < 2) return "bad path step";
        const char orient = tok.back();
        if (orient != '+' && orient != '-') return "bad step orientation";
        fn(tok.substr(0, tok.size() - 1), orient == '-');
        start = comma + 1;
    }
    return {};
}

/// Walks a GFA 1.1 `W` walk string (">s1<s2>s3..."), invoking
/// `fn(name, is_reverse)` per step ('<' = reverse). Same error contract as
/// for_each_p_step. A walk of "*" is treated as empty (no steps, success) —
/// callers decide whether an empty walk is an error.
template <typename Fn>
std::string for_each_walk_step(std::string_view walk, Fn&& fn) {
    if (walk == "*") return {};
    std::size_t i = 0;
    while (i < walk.size()) {
        const char orient = walk[i];
        if (orient != '>' && orient != '<') return "bad walk step (expected > or <)";
        ++i;
        std::size_t end = i;
        while (end < walk.size() && walk[end] != '>' && walk[end] != '<') ++end;
        if (end == i) return "empty segment name in walk";
        fn(walk.substr(i, end - i), orient == '<');
        i = end;
    }
    return {};
}

/// Synthesizes the path name of a W record ("sample#hap#seqid[:start-end]"),
/// the PanSN-style convention odgi/vg use when importing walks as paths.
std::string walk_path_name(std::string_view sample, std::string_view hap,
                           std::string_view seq_id, std::string_view start,
                           std::string_view end) {
    std::string name;
    name.reserve(sample.size() + hap.size() + seq_id.size() + start.size() +
                 end.size() + 4);
    name.append(sample).append("#").append(hap).append("#").append(seq_id);
    if (start != "*" && end != "*") {
        name.append(":").append(start).append("-").append(end);
    }
    return name;
}

/// Parses the LN:i: length tag of an S record whose sequence is "*" (real
/// pipelines emit sequence-free GFAs this way). Returns true and sets `len`
/// when the field is a well-formed LN tag.
bool parse_ln_tag(std::string_view field, std::uint32_t& len) {
    constexpr std::string_view kPrefix = "LN:i:";
    if (field.size() <= kPrefix.size() || field.substr(0, kPrefix.size()) != kPrefix) {
        return false;
    }
    std::uint64_t v = 0;
    for (const char c : field.substr(kPrefix.size())) {
        if (c < '0' || c > '9') return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
        if (v > 0xFFFFFFFFull) return false;
    }
    len = static_cast<std::uint32_t>(v);
    return true;
}

/// Counts the steps of a P segment list without tokenizing it.
std::uint64_t count_p_steps(std::string_view steps) {
    if (steps.empty()) return 0;
    std::uint64_t n = 1;
    for (const char c : steps) n += (c == ',');
    return n;
}

/// Counts the steps of a W walk without tokenizing it.
std::uint64_t count_walk_steps(std::string_view walk) {
    if (walk == "*") return 0;
    std::uint64_t n = 0;
    for (const char c : walk) n += (c == '>' || c == '<');
    return n;
}

}  // namespace

LeanIngest ingest_gfa(std::istream& in) {
    LeanIngest out;
    LeanGraphBuilder builder;
    NameTable name_to_id;

    // --- pass 1: segments (and exact path/step counts for reservation) ---
    std::string line;
    std::size_t line_no = 0;
    std::uint64_t n_paths = 0, n_steps = 0;
    while (std::getline(in, line)) {
        ++line_no;
        chomp(line);
        if (line.empty() || line[0] == '#') continue;
        const auto fields = split_tabs(line);
        switch (line[0]) {
            case 'S': {
                if (fields.size() < 3) fail(line_no, "S record needs 3 fields");
                std::uint32_t len = static_cast<std::uint32_t>(fields[2].size());
                if (fields[2] == "*") {
                    len = 0;
                    for (std::size_t f = 3; f < fields.size(); ++f) {
                        if (parse_ln_tag(fields[f], len)) break;
                    }
                }
                // Names live only in the lookup table during parsing; they
                // are moved into segment_names at the end, so they are
                // never held twice.
                const NodeId id = builder.add_node(len);
                if (!name_to_id.emplace(std::string(fields[1]), id).second) {
                    fail(line_no, "duplicate segment " + std::string(fields[1]));
                }
                break;
            }
            case 'P': {
                if (fields.size() < 3) fail(line_no, "P record needs 3 fields");
                ++n_paths;
                n_steps += count_p_steps(fields[2]);
                break;
            }
            case 'W': {
                if (fields.size() < 7) fail(line_no, "W record needs 7 fields");
                ++n_paths;
                n_steps += count_walk_steps(fields[6]);
                break;
            }
            default:
                break;  // L handled in pass 2; H, C and friends skipped
        }
    }

    builder.reserve_paths(n_paths);
    builder.reserve_steps(n_steps);
    out.path_names.reserve(n_paths);

    // --- pass 2: links and walks, streamed into the builder + union-find ---
    in.clear();
    in.seekg(0);
    if (!in) {
        throw std::runtime_error(
            "streaming GFA ingestion needs a seekable stream (two passes)");
    }

    core::UnionFind uf(builder.node_count());
    std::vector<NodeId> path_first_node;
    path_first_node.reserve(n_paths);

    const auto lookup = [&](std::string_view name, std::size_t at) -> NodeId {
        const auto it = name_to_id.find(name);
        if (it == name_to_id.end()) {
            fail(at, "unknown segment " + std::string(name));
        }
        return it->second;
    };

    line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        chomp(line);
        if (line.empty() || line[0] == '#') continue;
        const auto fields = split_tabs(line);
        switch (line[0]) {
            case 'L': {
                if (fields.size() < 5) fail(line_no, "L record needs 5 fields");
                if (fields[2] != "+" && fields[2] != "-") fail(line_no, "bad orientation");
                if (fields[4] != "+" && fields[4] != "-") fail(line_no, "bad orientation");
                const NodeId from = lookup(fields[1], line_no);
                const NodeId to = lookup(fields[3], line_no);
                uf.unite(from, to);
                ++out.edge_count;
                break;
            }
            case 'P':
            case 'W': {
                const bool is_walk = line[0] == 'W';
                const std::string_view steps = is_walk ? fields[6] : fields[2];
                std::string name =
                    is_walk ? walk_path_name(fields[1], fields[2], fields[3],
                                             fields[4], fields[5])
                            : std::string(fields[1]);
                NodeId prev = 0;
                bool have_prev = false;
                builder.begin_path();
                const auto feed = [&](std::string_view segment, bool rev) {
                    const NodeId v = lookup(segment, line_no);
                    builder.add_step(Handle::make(v, rev));
                    if (have_prev) {
                        uf.unite(prev, v);
                    } else {
                        path_first_node.push_back(v);
                        have_prev = true;
                    }
                    prev = v;
                };
                const std::string err = is_walk ? for_each_walk_step(steps, feed)
                                                : for_each_p_step(steps, feed);
                if (!err.empty()) fail(line_no, err);
                if (builder.end_path() == 0) {
                    fail(line_no, (is_walk ? "empty walk " : "empty path ") + name);
                }
                out.path_names.push_back(std::move(name));
                break;
            }
            default:
                break;
        }
    }

    // --- finalize: graph, segment names, dense component labels ---
    out.segment_names.resize(builder.node_count());
    while (!name_to_id.empty()) {
        auto node = name_to_id.extract(name_to_id.begin());
        out.segment_names[node.mapped()] = std::move(node.key());
    }

    auto dense = core::dense_labels(uf);
    out.component_count = dense.count;
    out.node_component = std::move(dense.label);
    out.path_component.reserve(path_first_node.size());
    for (const NodeId v : path_first_node) {
        out.path_component.push_back(out.node_component[v]);
    }
    out.graph = builder.finish();
    return out;
}

LeanIngest ingest_gfa_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open GFA file: " + path);
    return ingest_gfa(in);
}

}  // namespace pgl::graph
