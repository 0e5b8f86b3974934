#include "io/lay_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "io/atomic_file.hpp"

namespace pgl::io {

namespace {
constexpr char kMagic[8] = {'P', 'G', 'L', 'A', 'Y', '0', '0', '1'};

void write_floats(std::ostream& out, const std::vector<float>& v) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(float)));
}

void read_floats(std::istream& in, std::vector<float>& v) {
    in.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
    if (!in) throw std::runtime_error("layout file truncated");
}
}  // namespace

void write_layout(const core::Layout& l, std::ostream& out) {
    out.write(kMagic, sizeof kMagic);
    const std::uint64_t n = l.size();
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    write_floats(out, l.start_x);
    write_floats(out, l.start_y);
    write_floats(out, l.end_x);
    write_floats(out, l.end_y);
}

void write_layout_file(const core::Layout& l, const std::string& path) {
    // Temp-file + rename: a failed or interrupted run can never leave a
    // truncated .lay behind, and concurrent readers (the daemon's artifact
    // cache, CI's cmp) only ever see complete files.
    atomic_write_file(path, [&](std::ostream& out) { write_layout(l, out); });
}

core::Layout read_layout(std::istream& in) {
    char magic[8];
    in.read(magic, sizeof magic);
    if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
        throw std::runtime_error("not a PGLAY001 layout file");
    }
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof n);
    if (!in) throw std::runtime_error("layout file truncated");
    // Check the declared count against the bytes actually present
    // (seekable streams only, like read_pgg) so a corrupt header cannot
    // demand a multi-gigabyte allocation from a small file.
    if (const auto pos = in.tellg(); pos != std::istream::pos_type(-1)) {
        in.seekg(0, std::ios::end);
        const auto end = in.tellg();
        in.seekg(pos);
        if (end != std::istream::pos_type(-1) && in &&
            n > static_cast<std::uint64_t>(end - pos) / (4 * sizeof(float))) {
            throw std::runtime_error("layout file truncated");
        }
    }
    core::Layout l;
    l.resize(n);
    read_floats(in, l.start_x);
    read_floats(in, l.start_y);
    read_floats(in, l.end_x);
    read_floats(in, l.end_y);
    return l;
}

core::Layout read_layout_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open layout file: " + path);
    return read_layout(in);
}

}  // namespace pgl::io
