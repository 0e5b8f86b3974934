#pragma once
// A layout job request — the serve daemon's unit of work — and its two
// textual forms: the wire JSON ("config" object of a submit command) and
// the canonical string that keys the artifact cache.
//
// A request carries everything `pgl_layout` would take on its command
// line: the graph reference plus the full layout configuration (backend,
// kernel, core::LayoutConfig knobs, partition, multilevel). The canonical
// form includes exactly the fields that select the bytes of the finished
// .lay — so two requests that must produce identical output share one
// cache entry — and excludes the one pure execution knob,
// component_workers: a partitioned run is byte-identical at any worker
// count.
#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "multilevel/plan.hpp"
#include "serve/json.hpp"

namespace pgl::serve {

struct JobRequest {
    std::string graph;  ///< path to a .gfa or .pgg graph file
    std::string backend = "cpu-soa";
    core::LayoutConfig config;  ///< kernel/iters/seed/threads/... knobs
    bool partition = false;
    std::uint32_t component_workers = 1;  ///< execution-only: not in the key
    bool multilevel = false;
    multilevel::MultilevelOptions ml;
};

/// Builds a JobRequest from a submit command's fields: `graph` (string,
/// required) and the optional `config` object. Unknown config keys,
/// wrongly-typed values and values core::check_config or
/// rng::check_zipf_theta reject throw std::runtime_error naming the key
/// ("config.<key>: ...") — a mistyped request must fail loudly, not
/// silently run defaults or reach an engine. Field order in the JSON is
/// irrelevant by construction.
JobRequest parse_request(const JsonValue& submit);

/// The request as a wire-format JSON object (inverse of parse_request,
/// modulo defaulted fields, which are always spelled out).
JsonValue request_to_json(const JobRequest& r);

/// The canonical `name=value;...` string over every output-selecting field
/// (the layout algorithm version + backend + core canonical_config +
/// partition + multilevel options).
/// Stable under wire field reordering and default-vs-explicit spelling.
std::string canonical_request(const JobRequest& r);

}  // namespace pgl::serve
