#pragma once
// Tunables of the PG-SGD layout algorithm (Alg. 1). Defaults follow
// odgi-layout's defaults as described in the paper: 30 iterations, cooling
// in the second half, N_steps = 10 x (sum of path step counts) per
// iteration.
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace pgl::core {

struct Layout;  // core/layout.hpp

struct LayoutConfig {
    /// Total SGD iterations (N_iters in Alg. 1); odgi default is 30.
    std::uint32_t iter_max = 30;

    /// Iteration count the annealing schedule is computed over; 0 means
    /// iter_max. Setting this larger than iter_max yields a truncated
    /// ("stopped early") run of a longer schedule — used to produce
    /// partially-converged layouts for quality studies (Fig. 12).
    std::uint32_t schedule_iter_max = 0;

    /// Updates per iteration are `steps_per_iter_factor x total_path_steps`
    /// (Alg. 1 line 1 uses factor 10).
    double steps_per_iter_factor = 10.0;

    /// Final learning rate of the annealing schedule.
    double eps = 0.01;

    /// Explicit annealing ceiling. 0 (the default) derives eta_max from the
    /// graph as max_dref^2; a positive value restarts the schedule at that
    /// temperature instead — how a multilevel refinement pass resumes the
    /// anneal where the flat schedule would have been, rather than from the
    /// top. Clamped so eps <= eta_max (see core::make_eta_schedule).
    double eta_max = 0.0;

    /// Fraction of iterations after which every step takes the cooling
    /// (Zipf-local) branch; before that the branch is a coin flip
    /// (Alg. 1 line 6).
    double cooling_start = 0.5;

    /// Exponent of the Zipf hop-distance distribution in the cooling branch;
    /// must be finite and > 0 (rng::check_zipf_theta).
    double zipf_theta = 0.99;

    /// Largest hop distance the cooling branch may draw. 0 means "path
    /// length" (unbounded); odgi quantizes the space similarly.
    std::uint64_t zipf_space_max = 1000;

    /// Worker threads for the Hogwild! engine.
    std::uint32_t threads = 1;

    /// PRNG seed; every run with the same seed and 1 thread is bit-exact.
    std::uint64_t seed = 9'399'220'614'123'047ULL;

    /// Scale of the uniform y-jitter in the initial layout (x mean node len).
    double init_jitter = 1.0;

    /// Update kernel (KernelRegistry name) the batch-draining engines apply
    /// terms with: "scalar" (reference) or "simd" (vectorized,
    /// byte-identical). Engines resolve — and validate — the name at
    /// init().
    std::string kernel = "scalar";

    /// Warm start: when set, engines begin from this layout instead of the
    /// linear initial layout (it must hold exactly node_count() segments —
    /// engines throw otherwise). Shared, never mutated: a multilevel
    /// refinement pass hands every engine the interpolated positions this
    /// way.
    std::shared_ptr<const Layout> initial_layout;

    /// Cooperative cancellation token (the serve daemon's cancel path).
    /// When set and flipped true, iteration-synchronous engines stop at
    /// the next iteration boundary and return the coordinates they have —
    /// a partial layout the caller must treat as abandoned, never publish.
    /// The token is shared_ptr so one flag flows unchanged through config
    /// copies into partition component engines and multilevel passes.
    /// Never part of the canonical config (see canonical_config): it
    /// selects no bytes of a *completed* run.
    std::shared_ptr<const std::atomic<bool>> cancel;

    bool cancel_requested() const noexcept {
        return cancel && cancel->load(std::memory_order_relaxed);
    }

    std::uint32_t schedule_length() const noexcept {
        return schedule_iter_max ? schedule_iter_max : iter_max;
    }

    /// Requires cooling_start in [0, 1] (check_config), so the product
    /// fits the cast.
    bool cooling(std::uint32_t iter) const noexcept {
        return iter >= static_cast<std::uint32_t>(cooling_start * schedule_length());
    }

    /// Saturates at 1 below and at the largest uint64 above, so no factor
    /// makes the cast undefined.
    std::uint64_t steps_per_iteration(std::uint64_t total_path_steps) const noexcept {
        const double s = steps_per_iter_factor * static_cast<double>(total_path_steps);
        if (!(s >= 1.0)) return 1;
        if (s >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
        return static_cast<std::uint64_t>(s);
    }
};

/// Throws std::invalid_argument, naming the field by its CLI/wire key,
/// unless every floating-point knob is usable: factor, eps, eta_max and
/// init_jitter finite and >= 0, cooling_start in [0, 1]. The companion of
/// rng::check_zipf_theta, called at engine init and by the serve request
/// parser; out-of-range values would otherwise reach casts whose result is
/// undefined.
inline void check_config(const LayoutConfig& cfg) {
    const auto show = [](double v) {  // shortest round trip: "1e+300", "nan"
        char buf[32];
        return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    };
    const auto non_negative = [&](const char* key, double v) {
        if (!std::isfinite(v) || v < 0.0) {
            throw std::invalid_argument(std::string(key) +
                                        ": must be finite and >= 0, got " +
                                        show(v));
        }
    };
    non_negative("factor", cfg.steps_per_iter_factor);
    non_negative("eps", cfg.eps);
    non_negative("eta_max", cfg.eta_max);
    non_negative("init_jitter", cfg.init_jitter);
    if (!(cfg.cooling_start >= 0.0 && cfg.cooling_start <= 1.0)) {
        throw std::invalid_argument("cooling_start: must be in [0, 1], got " +
                                    show(cfg.cooling_start));
    }
}

}  // namespace pgl::core
