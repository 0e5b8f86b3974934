#pragma once
// Canonical text form of a LayoutConfig — the config half of the serve
// daemon's content-addressed artifact-cache key.
//
// Two configs that produce byte-identical layouts on the same graph must
// canonicalize to the same string, however their fields arrived (JSON key
// order, defaulted vs explicit values, "3" vs "3.0"). The rules:
//
//   * fixed field order (alphabetical), one `name=value` per field,
//     ';'-separated — wire-format key reordering cannot change the string;
//   * every output-affecting field is present, always, so a field left at
//     its default hashes identically to the same value spelled out;
//   * doubles print via shortest round-trip (std::to_chars), so any two
//     spellings of the same binary64 value agree;
//   * fields that do NOT select output bytes (cancel token, the warm-start
//     layout pointer — keyed separately by callers that use it) are
//     excluded.
//
// Callers composing a larger key (backend, partition, multilevel) append
// their own fields around this core string; see serve::cache_key.
#include <string>
#include <string_view>

#include "core/config.hpp"

namespace pgl::core {

/// Version of what a seeded layout run writes. Bump it with every change
/// that alters the output bytes for an unchanged config (sampler stream,
/// update arithmetic), so keys built over canonical_config never address
/// artifacts an older build produced. 2: table-driven Zipf hop sampler.
inline constexpr unsigned kLayoutAlgorithmVersion = 2;

/// The canonical `name=value;...` rendering of every output-affecting
/// LayoutConfig field.
std::string canonical_config(const LayoutConfig& cfg);

/// Shortest round-trip rendering of a double (std::to_chars), the number
/// format canonical_config uses — exposed so other key builders render
/// doubles identically.
std::string canonical_double(double v);

/// Applies one canonical `name=value` field to `cfg`. Returns false for a
/// field name canonical_config does not emit (callers layering their own
/// fields — backend, multilevel — handle those first and fall through
/// here); throws std::invalid_argument on a malformed value.
bool apply_canonical_field(LayoutConfig& cfg, std::string_view name,
                           std::string_view value);

/// Inverse of canonical_config: parses a `name=value;...` string back into
/// a LayoutConfig (unmentioned fields keep their defaults). Throws
/// std::invalid_argument on malformed input or an unknown field. The
/// round trip parse(canonical_config(cfg)) reproduces every
/// output-affecting field exactly — this is the wire format the
/// multi-process partition executor ships configs to worker processes in.
LayoutConfig parse_canonical_config(std::string_view spec);

}  // namespace pgl::core
