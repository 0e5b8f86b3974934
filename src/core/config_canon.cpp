#include "core/config_canon.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

#include "rng/zipf.hpp"

namespace pgl::core {

namespace {

template <typename T>
T parse_number(std::string_view name, std::string_view value) {
    T v{};
    const auto [ptr, ec] = std::from_chars(value.data(),
                                           value.data() + value.size(), v);
    if (ec != std::errc() || ptr != value.data() + value.size()) {
        throw std::invalid_argument("canonical config field " +
                                    std::string(name) +
                                    " has a malformed value: '" +
                                    std::string(value) + "'");
    }
    return v;
}

}  // namespace

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
    field("kernel", cfg.kernel);
    field("schedule_iter_max", std::to_string(cfg.schedule_iter_max));
    field("seed", std::to_string(cfg.seed));
    field("steps_per_iter_factor", canonical_double(cfg.steps_per_iter_factor));
    field("threads", std::to_string(cfg.threads));
    field("zipf_space_max", std::to_string(cfg.zipf_space_max));
    field("zipf_theta", canonical_double(cfg.zipf_theta));
    return s;
}

bool apply_canonical_field(LayoutConfig& cfg, std::string_view name,
                           std::string_view value) {
    if (name == "cooling_start") {
        cfg.cooling_start = parse_number<double>(name, value);
    } else if (name == "eps") {
        cfg.eps = parse_number<double>(name, value);
    } else if (name == "eta_max") {
        cfg.eta_max = parse_number<double>(name, value);
    } else if (name == "init_jitter") {
        cfg.init_jitter = parse_number<double>(name, value);
    } else if (name == "iter_max") {
        cfg.iter_max = parse_number<std::uint32_t>(name, value);
    } else if (name == "kernel") {
        cfg.kernel = std::string(value);
    } else if (name == "schedule_iter_max") {
        cfg.schedule_iter_max = parse_number<std::uint32_t>(name, value);
    } else if (name == "seed") {
        cfg.seed = parse_number<std::uint64_t>(name, value);
    } else if (name == "steps_per_iter_factor") {
        cfg.steps_per_iter_factor = parse_number<double>(name, value);
    } else if (name == "threads") {
        cfg.threads = parse_number<std::uint32_t>(name, value);
    } else if (name == "zipf_space_max") {
        cfg.zipf_space_max = parse_number<std::uint64_t>(name, value);
    } else if (name == "zipf_theta") {
        cfg.zipf_theta = parse_number<double>(name, value);
        rng::check_zipf_theta(cfg.zipf_theta);
    } else {
        return false;
    }
    return true;
}

LayoutConfig parse_canonical_config(std::string_view spec) {
    LayoutConfig cfg;
    while (!spec.empty()) {
        const std::size_t semi = spec.find(';');
        if (semi == std::string_view::npos) {
            throw std::invalid_argument(
                "canonical config is not ';'-terminated: '" +
                std::string(spec) + "'");
        }
        const std::string_view field = spec.substr(0, semi);
        spec.remove_prefix(semi + 1);
        const std::size_t eq = field.find('=');
        if (eq == std::string_view::npos) {
            throw std::invalid_argument("canonical config field without '=': '" +
                                        std::string(field) + "'");
        }
        const std::string_view name = field.substr(0, eq);
        if (!apply_canonical_field(cfg, name, field.substr(eq + 1))) {
            throw std::invalid_argument("unknown canonical config field: " +
                                        std::string(name));
        }
    }
    return cfg;
}

}  // namespace pgl::core
