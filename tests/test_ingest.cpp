// Tests for the streaming ingestion subsystem: the gfa_stream reader
// (GFA 1.0 P records, GFA 1.1 W walks, CRLF tolerance, malformed-input
// rejection, a deterministic mutation fuzz), the write_gfa -> ingest_gfa
// round trip against LeanGraph::from_graph, and the .pgg binary graph
// cache (round trip, truncation, corruption, checksum).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "graph/lean_graph.hpp"
#include "io/pgg_io.hpp"
#include "partition/components.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using graph::LeanGraph;
using graph::LeanIngest;

/// Asserts two lean graphs are bit-identical in every field the engines
/// and the partition subsystem consume.
void expect_same_lean(const LeanGraph& a, const LeanGraph& b) {
    ASSERT_EQ(a.node_count(), b.node_count());
    ASSERT_EQ(a.path_count(), b.path_count());
    ASSERT_EQ(a.total_path_steps(), b.total_path_steps());
    EXPECT_EQ(a.total_path_nucleotides(), b.total_path_nucleotides());
    EXPECT_EQ(a.max_path_nuc_length(), b.max_path_nuc_length());
    for (std::uint32_t v = 0; v < a.node_count(); ++v) {
        ASSERT_EQ(a.node_length(v), b.node_length(v)) << "node " << v;
    }
    for (std::uint32_t p = 0; p < a.path_count(); ++p) {
        ASSERT_EQ(a.path_step_count(p), b.path_step_count(p)) << "path " << p;
        EXPECT_EQ(a.path_nuc_length(p), b.path_nuc_length(p));
        for (std::uint32_t i = 0; i < a.path_step_count(p); ++i) {
            const auto& ra = a.step_record(p, i);
            const auto& rb = b.step_record(p, i);
            ASSERT_EQ(ra.node, rb.node) << "path " << p << " step " << i;
            ASSERT_EQ(ra.orient, rb.orient);
            ASSERT_EQ(ra.position, rb.position);
        }
    }
}

const std::string kMiniGfa =
    "H\tVN:Z:1.0\n"
    "S\ts1\tACGT\n"
    "S\ts2\tTT\n"
    "S\ts3\tG\n"
    "L\ts1\t+\ts2\t-\t0M\n"
    "L\ts2\t+\ts3\t+\t0M\n"
    "P\tp1\ts1+,s2-,s3+\t*\n"
    "P\tp2\ts1+,s2+\t*\n";

// --- streaming reader basics ---

TEST(GfaStream, ParsesSegmentsLinksPaths) {
    std::stringstream ss(kMiniGfa);
    const auto ing = graph::ingest_gfa(ss);
    EXPECT_EQ(ing.graph.node_count(), 3u);
    EXPECT_EQ(ing.graph.path_count(), 2u);
    EXPECT_EQ(ing.graph.total_path_steps(), 5u);
    EXPECT_EQ(ing.edge_count, 2u);
    ASSERT_EQ(ing.segment_names.size(), 3u);
    EXPECT_EQ(ing.segment_names[0], "s1");
    EXPECT_EQ(ing.segment_names[2], "s3");
    ASSERT_EQ(ing.path_names.size(), 2u);
    EXPECT_EQ(ing.path_names[0], "p1");
    // Orientation and positions of p1 = s1(4) s2rev(2) s3(1).
    EXPECT_EQ(ing.graph.step_record(0, 0).orient, 0u);
    EXPECT_EQ(ing.graph.step_record(0, 1).orient, 1u);
    EXPECT_EQ(ing.graph.step_record(0, 1).position, 4u);
    EXPECT_EQ(ing.graph.step_record(0, 2).position, 6u);
    EXPECT_EQ(ing.graph.path_nuc_length(0), 7u);
    // One connected component; every node and path labeled 0.
    EXPECT_EQ(ing.component_count, 1u);
    EXPECT_EQ(ing.node_component, (std::vector<std::uint32_t>{0, 0, 0}));
    EXPECT_EQ(ing.path_component, (std::vector<std::uint32_t>{0, 0}));
}

TEST(GfaStream, ParsesWalkRecords) {
    const std::string gfa =
        "H\tVN:Z:1.1\n"
        "S\ts1\tACGT\n"
        "S\ts2\tTT\n"
        "S\ts3\tG\n"
        "W\tHG002\t1\tchr1\t0\t7\t>s1<s2>s3\n"
        "W\tHG002\t2\tchr1\t*\t*\t>s1>s2\n";
    std::stringstream ss(gfa);
    const auto ing = graph::ingest_gfa(ss);
    EXPECT_EQ(ing.graph.path_count(), 2u);
    EXPECT_EQ(ing.path_names[0], "HG002#1#chr1:0-7");
    EXPECT_EQ(ing.path_names[1], "HG002#2#chr1");  // '*' range omitted
    EXPECT_EQ(ing.graph.step_record(0, 0).orient, 0u);
    EXPECT_EQ(ing.graph.step_record(0, 1).orient, 1u);  // '<' = reverse
    EXPECT_EQ(ing.graph.step_record(0, 2).orient, 0u);
    EXPECT_EQ(ing.graph.path_nuc_length(0), 7u);
    // Walk steps connect the component even without L records.
    EXPECT_EQ(ing.component_count, 1u);
}

TEST(GfaStream, ToleratesCrlfAndTrailingWhitespace) {
    std::string crlf;
    for (const char c : kMiniGfa) {
        if (c == '\n') crlf += "\r\n";
        else crlf += c;
    }
    std::stringstream unix_ss(kMiniGfa), crlf_ss(crlf);
    const auto a = graph::ingest_gfa(unix_ss);
    const auto b = graph::ingest_gfa(crlf_ss);
    expect_same_lean(a.graph, b.graph);
    EXPECT_EQ(a.segment_names, b.segment_names);  // no '\r' in names
    EXPECT_EQ(a.path_names, b.path_names);
}

TEST(GfaStream, HonorsLnLengthTagOnSequenceFreeSegments) {
    const std::string gfa =
        "S\ts1\t*\tLN:i:123\n"
        "S\ts2\t*\n"
        "P\tp\ts1+,s2+\t*\n";
    std::stringstream ss(gfa);
    const auto ing = graph::ingest_gfa(ss);
    EXPECT_EQ(ing.graph.node_length(0), 123u);
    EXPECT_EQ(ing.graph.node_length(1), 0u);
}

TEST(GfaStream, LabelsMultipleComponents) {
    const std::string gfa =
        "S\ta1\tAA\n"
        "S\ta2\tCC\n"
        "S\tb1\tGG\n"
        "S\tb2\tTT\n"
        "S\tlonely\tA\n"
        "L\ta1\t+\ta2\t+\t0M\n"
        "P\tpb\tb1+,b2+\t*\n";
    std::stringstream ss(gfa);
    const auto ing = graph::ingest_gfa(ss);
    // Components numbered by smallest node id: {a1,a2}=0, {b1,b2}=1,
    // {lonely}=2.
    EXPECT_EQ(ing.component_count, 3u);
    EXPECT_EQ(ing.node_component, (std::vector<std::uint32_t>{0, 0, 1, 1, 2}));
    EXPECT_EQ(ing.path_component, (std::vector<std::uint32_t>{1}));
}

// --- malformed input rejection ---

TEST(GfaStream, RejectsDuplicateSegments) {
    std::stringstream ss("S\tx\tA\nS\tx\tC\n");
    EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
}

TEST(GfaStream, RejectsUnknownSegmentInLink) {
    std::stringstream ss("S\tx\tA\nL\tx\t+\tmissing\t+\t0M\n");
    EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
}

TEST(GfaStream, RejectsUnknownSegmentInPathAndWalk) {
    {
        std::stringstream ss("S\tx\tA\nP\tp\tx+,missing+\t*\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
    {
        std::stringstream ss("S\tx\tA\nW\ts\t1\tc\t0\t1\t>x>missing\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
}

/// The message of the std::runtime_error ingesting `gfa` throws, or ""
/// when it ingests cleanly.
std::string ingest_error(const std::string& gfa) {
    std::stringstream ss(gfa);
    try {
        graph::ingest_gfa(ss);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return {};
}

TEST(GfaStream, RejectsEmptyPathAndWalk) {
    const std::string path_err = ingest_error("S\tx\tA\nP\tpath_a\t\t*\n");
    EXPECT_NE(path_err.find("empty path path_a"), std::string::npos) << path_err;
    // A walk is named by its synthesized sample#hap#seqid[:start-end].
    const std::string walk_err =
        ingest_error("S\tx\tA\nW\tHG9\t1\tchr2\t0\t0\t*\n");
    EXPECT_NE(walk_err.find("empty walk HG9#1#chr2:0-0"), std::string::npos)
        << walk_err;
}

TEST(GfaStream, RejectsBadOrientationAndMalformedWalk) {
    {
        std::stringstream ss("S\tx\tA\nS\ty\tC\nL\tx\t?\ty\t+\t0M\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
    {
        std::stringstream ss("S\tx\tA\nW\ts\t1\tc\t0\t1\tx>\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
    {
        std::stringstream ss("S\tx\tA\nW\ts\t1\tc\t0\t1\t><\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
}

// --- mutation fuzz ---

/// Reads a file from the test data directory into a string.
std::string read_test_data(const std::string& name) {
    std::ifstream in(std::string(PGL_TEST_DATA_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in) << "missing test data " << name;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// One random edit of `s`: a byte flip, an insert, a deleted run, or a
/// duplicated line. Inserted and flipped bytes favour the characters GFA
/// tokenizing turns on, so most mutants reach deep into the parser.
void mutate(std::string& s, std::mt19937_64& rng) {
    static const std::string kAlphabet = "\t\n\r+-<>*,#:0123456789SLPWHsLN ";
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const auto random_byte = [&] {
        return pick(4) == 0 ? static_cast<char>(rng() & 0xFF)
                            : kAlphabet[pick(kAlphabet.size())];
    };
    switch (pick(4)) {
        case 0:  // flip
            if (!s.empty()) s[pick(s.size())] = random_byte();
            break;
        case 1:  // insert
            s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)),
                     random_byte());
            break;
        case 2:  // delete a run of up to 8 bytes
            if (!s.empty()) {
                const std::size_t at = pick(s.size());
                s.erase(at, 1 + pick(8));
            }
            break;
        default: {  // duplicate a line at another line start
            std::vector<std::size_t> starts{0};
            for (std::size_t i = 0; i < s.size(); ++i) {
                if (s[i] == '\n' && i + 1 < s.size()) starts.push_back(i + 1);
            }
            const std::size_t from = starts[pick(starts.size())];
            const std::size_t nl = s.find('\n', from);
            const std::string line = nl == std::string::npos
                                         ? s.substr(from) + "\n"
                                         : s.substr(from, nl - from + 1);
            s.insert(starts[pick(starts.size())], line);
            break;
        }
    }
}

/// The invariants every accepted ingest must hold: names and labels cover
/// exactly the nodes and paths, labels are in range, and every step of a
/// path lies in that path's component (its first node's label).
void expect_consistent(const LeanIngest& ing, const std::string& input) {
    const LeanGraph& g = ing.graph;
    ASSERT_EQ(ing.segment_names.size(), g.node_count()) << input;
    ASSERT_EQ(ing.node_component.size(), g.node_count()) << input;
    ASSERT_EQ(ing.path_names.size(), g.path_count()) << input;
    ASSERT_EQ(ing.path_component.size(), g.path_count()) << input;
    for (const std::uint32_t c : ing.node_component) {
        ASSERT_LT(c, ing.component_count) << input;
    }
    for (std::uint32_t p = 0; p < g.path_count(); ++p) {
        ASSERT_GT(g.path_step_count(p), 0u) << input;
        const std::uint32_t c = ing.path_component[p];
        ASSERT_EQ(c, ing.node_component[g.step_record(p, 0).node]) << input;
        for (std::uint32_t i = 0; i < g.path_step_count(p); ++i) {
            const auto node = g.step_record(p, i).node;
            ASSERT_LT(node, g.node_count()) << input;
            ASSERT_EQ(ing.node_component[node], c) << input;
        }
    }
}

TEST(GfaStream, MutationFuzzEitherThrowsOrStaysConsistent) {
    const std::vector<std::string> seeds{
        kMiniGfa,
        "H\tVN:Z:1.1\n"
        "S\ts1\t*\tLN:i:12\n"
        "S\ts2\tACG\n"
        "S\ts3\t*\tLN:i:5\n"
        "L\ts1\t+\ts2\t-\t0M\n"
        "W\tHG1\t0\tchr1\t0\t20\t>s1<s2>s3\n"
        "W\tHG1\t1\tchr1\t*\t*\t>s3\n",
        read_test_data("walks_crlf.gfa"),
    };
    std::mt19937_64 rng(0x5EEDF022u);
    std::uint32_t accepted = 0, rejected = 0;
    for (int m = 0; m < 20000; ++m) {
        std::string input = seeds[static_cast<std::size_t>(m) % seeds.size()];
        for (std::uint64_t e = 1 + rng() % 4; e > 0; --e) mutate(input, rng);
        std::stringstream ss(input);
        LeanIngest ing;
        try {
            ing = graph::ingest_gfa(ss);
        } catch (const std::runtime_error&) {
            ++rejected;
            continue;
        }
        ++accepted;
        expect_consistent(ing, input);
        if (::testing::Test::HasFatalFailure()) return;
    }
    // Both outcomes must be reached, or the mutants test nothing.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
}

// --- writer round trip ---

TEST(GfaStream, WriterRoundTripMatchesFromGraph) {
    const auto vg = workloads::generate_whole_genome(
        workloads::whole_genome_spec(3, 0.0003, 77));
    std::stringstream gfa;
    graph::write_gfa(vg, gfa);
    const auto ing = graph::ingest_gfa(gfa);
    const auto lean = graph::LeanGraph::from_graph(vg);
    expect_same_lean(ing.graph, lean);

    // Generators add edges only along paths, so the ingest's edge + path
    // labels equal the lean labeler's path-only labels on this graph.
    const auto labels = partition::label_components(lean);
    ASSERT_EQ(labels.count, 3u);
    EXPECT_EQ(ing.component_count, labels.count);
    EXPECT_EQ(ing.node_component, labels.node_component);
    EXPECT_EQ(ing.path_component, labels.path_component);
}

TEST(GfaStream, WalkAndPathRecordsYieldIdenticalStepRecords) {
    const std::string base =
        "S\ts1\tACGT\nS\ts2\tTT\nS\ts3\tG\n";
    std::stringstream p_ss(base + "P\tw\ts1+,s2-,s3+\t*\n");
    std::stringstream w_ss(base + "W\tsamp\t1\tchr\t0\t7\t>s1<s2>s3\n");
    const auto via_p = graph::ingest_gfa(p_ss);
    const auto via_w = graph::ingest_gfa(w_ss);
    expect_same_lean(via_p.graph, via_w.graph);
}

// --- .pgg binary graph cache ---

LeanIngest make_ingest() {
    const auto vg = workloads::generate_whole_genome(
        workloads::whole_genome_spec(2, 0.0002, 5));
    std::stringstream gfa;
    graph::write_gfa(vg, gfa);
    return graph::ingest_gfa(gfa);
}

TEST(PggIo, RoundTripIsExact) {
    const auto ing = make_ingest();
    std::stringstream ss;
    io::write_pgg(ing, ss);
    const auto back = io::read_pgg(ss);
    expect_same_lean(back.graph, ing.graph);
    EXPECT_EQ(back.segment_names, ing.segment_names);
    EXPECT_EQ(back.path_names, ing.path_names);
    EXPECT_EQ(back.component_count, ing.component_count);
    EXPECT_EQ(back.node_component, ing.node_component);
    EXPECT_EQ(back.path_component, ing.path_component);
}

TEST(PggIo, RejectsBadMagic) {
    std::stringstream ss("definitely not a graph cache");
    EXPECT_THROW(io::read_pgg(ss), std::runtime_error);
}

TEST(PggIo, RejectsTruncatedHeader) {
    const auto ing = make_ingest();
    std::stringstream full;
    io::write_pgg(ing, full);
    std::stringstream cut(full.str().substr(0, 14));  // inside the counts
    EXPECT_THROW(io::read_pgg(cut), std::runtime_error);
}

TEST(PggIo, RejectsTruncatedPayload) {
    const auto ing = make_ingest();
    std::stringstream full;
    io::write_pgg(ing, full);
    const std::string bytes = full.str();
    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(io::read_pgg(cut), std::runtime_error);
}

TEST(PggIo, RejectsImplausibleHeaderCounts) {
    const auto ing = make_ingest();
    std::stringstream full;
    io::write_pgg(ing, full);
    std::string bytes = full.str();
    // node_count lives at offset 12 (magic 8 + flags 4); blow it up.
    for (std::size_t i = 12; i < 20; ++i) bytes[i] = '\xFF';
    std::stringstream corrupt(bytes);
    EXPECT_THROW(io::read_pgg(corrupt), std::runtime_error);
}

TEST(PggIo, RejectsHeaderCountsLargerThanFile) {
    const auto ing = make_ingest();
    std::stringstream full;
    io::write_pgg(ing, full);
    std::string bytes = full.str();
    // A node_count that passes the plausibility cap but dwarfs the actual
    // file must be rejected by the payload-size cross-check *before* any
    // count-sized allocation is attempted.
    const std::uint64_t big = 1ull << 30;
    std::memcpy(&bytes[12], &big, sizeof big);
    std::stringstream corrupt(bytes);
    try {
        io::read_pgg(corrupt);
        FAIL() << "oversized header was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
            << e.what();
    }
}

TEST(PggIo, RejectsChecksumMismatch) {
    const auto ing = make_ingest();
    std::stringstream full;
    io::write_pgg(ing, full);
    std::string bytes = full.str();
    // Flip one bit inside the node-length table (offset 40 onward): the
    // value itself is plausible, so only the checksum can catch it.
    bytes[44] = static_cast<char>(bytes[44] ^ 0x01);
    std::stringstream corrupt(bytes);
    try {
        io::read_pgg(corrupt);
        FAIL() << "corrupt cache was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
            << e.what();
    }
}

TEST(PggIo, RejectsStepsOutsideTheirPathsComponent) {
    // A forged label table behind a valid checksum: one path claims
    // component 0 while its steps live in another component. Partitioning
    // such a graph would index component 0's node table with another
    // component's local ids, so the loader must refuse it.
    auto ing = make_ingest();
    ASSERT_GE(ing.component_count, 2u);
    std::size_t p = 0;
    while (p < ing.path_component.size() && ing.path_component[p] == 0) ++p;
    ASSERT_LT(p, ing.path_component.size());
    ing.path_component[p] = 0;
    const std::string path = ::testing::TempDir() + "/pgl_forged.pgg";
    io::write_pgg_file(ing, path);
    try {
        io::read_pgg_file(path);
        FAIL() << "forged component labels were accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("component"), std::string::npos)
            << e.what();
    }
}

TEST(PggIo, RejectsMoreComponentsThanNodes) {
    auto ing = make_ingest();
    ing.component_count = ing.graph.node_count() + 1;
    std::stringstream ss;
    io::write_pgg(ing, ss);
    EXPECT_THROW(io::read_pgg(ss), std::runtime_error);
}

TEST(PggIo, FileRoundTripAndExtensionDispatch) {
    const auto ing = make_ingest();
    const std::string gfa_path = ::testing::TempDir() + "/pgl_ingest.gfa";
    const std::string pgg_path = ::testing::TempDir() + "/pgl_ingest.pgg";
    {
        // Write a GFA alongside the cache so both dispatch branches run.
        const auto vg = workloads::generate_whole_genome(
            workloads::whole_genome_spec(2, 0.0002, 5));
        graph::write_gfa_file(vg, gfa_path);
    }
    io::write_pgg_file(ing, pgg_path);
    EXPECT_TRUE(io::is_pgg_path(pgg_path));
    EXPECT_FALSE(io::is_pgg_path(gfa_path));

    const auto from_pgg = io::load_graph_file(pgg_path);
    const auto from_gfa = io::load_graph_file(gfa_path);
    expect_same_lean(from_pgg.graph, ing.graph);
    expect_same_lean(from_gfa.graph, ing.graph);
    EXPECT_EQ(from_pgg.node_component, from_gfa.node_component);
}

TEST(PggIo, FileRejectsTrailingBytesAfterChecksum) {
    const auto ing = make_ingest();
    const std::string path = ::testing::TempDir() + "/pgl_trailing.pgg";
    io::write_pgg_file(ing, path);
    {
        std::ofstream append(path, std::ios::binary | std::ios::app);
        append << "junk";
    }
    EXPECT_THROW(io::read_pgg_file(path), std::runtime_error);
}

TEST(PggIo, MissingFileThrows) {
    EXPECT_THROW(io::read_pgg_file("/nonexistent/nowhere.pgg"),
                 std::runtime_error);
}

}  // namespace
