#pragma once
// Content-addressed artifact cache — the serve daemon's fast path. A
// finished layout is addressed by what produced it, not when: the key is
//
//   fnv1a64(graph bytes)  x  fnv1a64(canonical_request(config))
//
// rendered as 32 hex digits. For a .pgg graph the first half IS the
// trailing FNV-1a checksum the format already carries (read from the last
// 8 bytes — no re-hash of a multi-gigabyte cache file); any other input
// is hashed in full. The canonical request carries
// core::kLayoutAlgorithmVersion, so a daemon restarted on an existing cache
// directory by a build whose seeded bytes differ misses instead of serving
// the older build's artifacts as current. Deterministic backends produce byte-identical .lay
// files for a fixed key, so a hit can be served without touching an
// engine — and is byte-identical to what a fresh run would write.
//
// Robustness: lookups validate the cached artifact by parsing it (magic +
// full payload); a truncated or corrupt entry is evicted (unlinked) and
// reported as a miss, so one bad disk write can never serve garbage
// forever. Publication goes through io::atomic_write_file, so a reader
// never observes a partial artifact and concurrent publishers of the same
// key are safe (last complete file wins; the bytes are identical anyway).
#include <cstdint>
#include <optional>
#include <string>

#include "core/layout.hpp"

namespace pgl::serve {

/// FNV-1a 64 fingerprint of the graph file at `path`: the stored trailing
/// checksum for a well-formed .pgg, a full-file hash otherwise. Throws
/// std::runtime_error if the file cannot be read.
std::uint64_t graph_fingerprint(const std::string& path);

/// 32-hex-digit cache key from the two fingerprint halves.
std::string cache_key(std::uint64_t graph_fp, std::uint64_t config_fp);

/// FNV-1a 64 over a string (the canonical-request half of the key).
std::uint64_t fnv1a64(const std::string& s) noexcept;

class ArtifactCache {
public:
    /// Creates `dir` (and parents) if missing.
    explicit ArtifactCache(std::string dir);

    const std::string& dir() const noexcept { return dir_; }

    /// Where the artifact for `key` lives (whether or not it exists yet).
    std::string path_for(const std::string& key) const;

    /// The artifact path when a *valid* artifact exists for `key`. A
    /// present-but-corrupt entry (bad magic, truncation) is evicted and
    /// reported as a miss.
    std::optional<std::string> lookup(const std::string& key);

    /// Atomically publishes `layout` as the artifact for `key`; returns
    /// its path.
    std::string publish(const std::string& key, const core::Layout& layout);

    std::uint64_t hits() const noexcept { return hits_; }
    std::uint64_t misses() const noexcept { return misses_; }
    std::uint64_t evictions() const noexcept { return evictions_; }

private:
    std::string dir_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

}  // namespace pgl::serve
