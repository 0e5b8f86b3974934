#include "core/config_canon.hpp"

#include <charconv>
#include <system_error>

namespace pgl::core {

std::string canonical_double(double v) {
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    if (ec != std::errc()) return "nan";  // to_chars cannot fail on binary64
    return std::string(buf, ptr);
}

std::string canonical_config(const LayoutConfig& cfg) {
    std::string s;
    s.reserve(256);
    const auto field = [&](const char* name, const std::string& value) {
        s += name;
        s += '=';
        s += value;
        s += ';';
    };
    // Alphabetical by field name; every output-affecting field, no others.
    field("cooling_start", canonical_double(cfg.cooling_start));
    field("eps", canonical_double(cfg.eps));
    field("eta_max", canonical_double(cfg.eta_max));
    field("init_jitter", canonical_double(cfg.init_jitter));
    field("iter_max", std::to_string(cfg.iter_max));
    field("schedule_iter_max", std::to_string(cfg.schedule_iter_max));
    field("seed", std::to_string(cfg.seed));
    field("steps_per_iter_factor", canonical_double(cfg.steps_per_iter_factor));
    field("threads", std::to_string(cfg.threads));
    field("zipf_space_max", std::to_string(cfg.zipf_space_max));
    field("zipf_theta", canonical_double(cfg.zipf_theta));
    return s;
}

}  // namespace pgl::core
