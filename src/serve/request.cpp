#include "serve/request.hpp"

#include <limits>
#include <stdexcept>

#include "core/config_canon.hpp"
#include "rng/zipf.hpp"

namespace pgl::serve {

namespace {

template <typename T>
T checked_uint(const JsonValue& v, const char* key) {
    const std::uint64_t u = v.as_uint();
    if (u > std::numeric_limits<T>::max()) {
        throw std::runtime_error(std::string("config.") + key +
                                 " is out of range");
    }
    return static_cast<T>(u);
}

}  // namespace

JobRequest parse_request(const JsonValue& submit) {
    JobRequest r;
    const JsonValue* graph = submit.find("graph");
    if (!graph) throw std::runtime_error("submit requires a \"graph\" path");
    r.graph = graph->as_string();

    const JsonValue* config = submit.find("config");
    if (!config) return r;
    for (const auto& [key, v] : config->as_object()) {
        try {
            if (key == "backend") {
                r.backend = v.as_string();
            } else if (key == "iters") {
                r.config.iter_max = checked_uint<std::uint32_t>(v, "iters");
            } else if (key == "schedule_iters") {
                r.config.schedule_iter_max =
                    checked_uint<std::uint32_t>(v, "schedule_iters");
            } else if (key == "factor") {
                r.config.steps_per_iter_factor = v.as_double();
            } else if (key == "eps") {
                r.config.eps = v.as_double();
            } else if (key == "eta_max") {
                r.config.eta_max = v.as_double();
            } else if (key == "cooling_start") {
                r.config.cooling_start = v.as_double();
            } else if (key == "zipf_theta") {
                r.config.zipf_theta = v.as_double();
                rng::check_zipf_theta(r.config.zipf_theta);
            } else if (key == "zipf_space_max") {
                r.config.zipf_space_max = v.as_uint();
            } else if (key == "threads") {
                r.config.threads = checked_uint<std::uint32_t>(v, "threads");
            } else if (key == "seed") {
                r.config.seed = v.as_uint();
            } else if (key == "init_jitter") {
                r.config.init_jitter = v.as_double();
            } else if (key == "partition") {
                r.partition = v.as_bool();
            } else if (key == "component_workers") {
                r.component_workers =
                    checked_uint<std::uint32_t>(v, "component_workers");
            } else if (key == "multilevel") {
                // 0 = off, N >= 1 = on with N coarsening levels — the CLI's
                // --multilevel[=N] shape.
                const auto levels = checked_uint<std::uint32_t>(v, "multilevel");
                r.multilevel = levels > 0;
                if (levels > 0) r.ml.levels = levels;
            } else if (key == "coarse_iters") {
                r.ml.coarse_iters =
                    checked_uint<std::uint32_t>(v, "coarse_iters");
            } else if (key == "refine_iters") {
                r.ml.refine_iters =
                    checked_uint<std::uint32_t>(v, "refine_iters");
            } else if (key == "refine_eta") {
                r.ml.refine_eta = v.as_double();
            } else if (key == "exact_tail") {
                r.ml.exact_tail = v.as_bool();
            } else {
                throw std::runtime_error("unknown config key");
            }
        } catch (const std::exception& e) {
            throw std::runtime_error("config." + key + ": " + e.what());
        }
    }
    // The float knobs are checked together once every key is in; the
    // message already leads with the offending key.
    try {
        core::check_config(r.config);
    } catch (const std::exception& e) {
        throw std::runtime_error(std::string("config.") + e.what());
    }
    return r;
}

JsonValue request_to_json(const JobRequest& r) {
    JsonObject config;
    config["backend"] = JsonValue(r.backend);
    config["iters"] = JsonValue(std::uint64_t{r.config.iter_max});
    config["schedule_iters"] = JsonValue(std::uint64_t{r.config.schedule_iter_max});
    config["factor"] = JsonValue(r.config.steps_per_iter_factor);
    config["eps"] = JsonValue(r.config.eps);
    config["eta_max"] = JsonValue(r.config.eta_max);
    config["cooling_start"] = JsonValue(r.config.cooling_start);
    config["zipf_theta"] = JsonValue(r.config.zipf_theta);
    config["zipf_space_max"] = JsonValue(r.config.zipf_space_max);
    config["threads"] = JsonValue(std::uint64_t{r.config.threads});
    config["seed"] = JsonValue(r.config.seed);
    config["init_jitter"] = JsonValue(r.config.init_jitter);
    config["partition"] = JsonValue(r.partition);
    config["component_workers"] = JsonValue(std::uint64_t{r.component_workers});
    config["multilevel"] =
        JsonValue(std::uint64_t{r.multilevel ? r.ml.levels : 0});
    config["coarse_iters"] = JsonValue(std::uint64_t{r.ml.coarse_iters});
    config["refine_iters"] = JsonValue(std::uint64_t{r.ml.refine_iters});
    config["refine_eta"] = JsonValue(r.ml.refine_eta);
    config["exact_tail"] = JsonValue(r.ml.exact_tail);

    JsonObject o;
    o["graph"] = JsonValue(r.graph);
    o["config"] = JsonValue(std::move(config));
    return JsonValue(std::move(o));
}

std::string canonical_request(const JobRequest& r) {
    std::string s;
    s.reserve(320);
    s += "algorithm=";
    s += std::to_string(core::kLayoutAlgorithmVersion);
    s += ";backend=";
    s += r.backend;
    s += ';';
    s += core::canonical_config(r.config);
    s += "partition=";
    s += r.partition ? '1' : '0';
    s += ";multilevel=";
    // One field for the on/off switch and the level count: off is 0, so an
    // off request can never collide with any on request.
    s += std::to_string(r.multilevel ? r.ml.levels : 0);
    s += ';';
    if (r.multilevel) {
        s += "ml.coarse_iters=" + std::to_string(r.ml.coarse_iters) + ';';
        s += "ml.refine_iters=" + std::to_string(r.ml.refine_iters) + ';';
        s += "ml.refine_eta=" + core::canonical_double(r.ml.refine_eta) + ';';
        s += "ml.exact_tail=";
        s += r.ml.exact_tail ? '1' : '0';
        s += ';';
    }
    return s;
}

}  // namespace pgl::serve
