#include "core/cpu_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "core/kernels/update_kernel.hpp"
#include "core/sampling.hpp"
#include "core/schedule.hpp"
#include "core/step_math.hpp"
#include "core/thread_pool.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::core {

namespace {

/// The per-term Hogwild loop: sample, update, repeat. Goes through the
/// store's relaxed-atomic accessors because with threads > 1 the workers
/// race on the coordinates by design. Kept out of line: inlined into the
/// worker lambda, GCC stops inlining PairSampler::sample into the loop,
/// which costs ~8% of the 1-thread loop's time.
[[gnu::noinline]] std::uint64_t run_scalar_iter(const PairSampler& sampler, double eta,
                              bool cooling_iter, XYStore& store,
                              rng::Xoshiro256Plus& rng, std::uint64_t steps) {
    std::uint64_t skipped = 0;
    for (std::uint64_t s = 0; s < steps; ++s) {
        const TermSample t = sampler.sample(cooling_iter, rng);
        if (!t.valid) {
            ++skipped;
            continue;
        }
        const float xi = store.load_x(t.node_i, t.end_i);
        const float yi = store.load_y(t.node_i, t.end_i);
        const float xj = store.load_x(t.node_j, t.end_j);
        const float yj = store.load_y(t.node_j, t.end_j);
        const PointDelta d =
            sgd_term_update(xi, yi, xj, yj, t.d_ref, eta, draw_nudge(rng));
        store.store_x(t.node_i, t.end_i, xi + d.dx_i);
        store.store_y(t.node_i, t.end_i, yi + d.dy_i);
        store.store_x(t.node_j, t.end_j, xj + d.dx_j);
        store.store_y(t.node_j, t.end_j, yj + d.dy_j);
    }
    return skipped;
}

/// The Hogwild loop on max(pool.size(), 1) workers. Every worker runs the
/// whole schedule without barriers — one pool dispatch covers the entire
/// run, and a size-0 pool runs it inline on the calling thread as worker 0
/// (the seed stream jumped zero times, with the full n_steps share). Each
/// worker marks iteration boundaries as it crosses them, and the *last*
/// worker past a boundary emits the aggregated IterationStats. Emission is
/// pure observation (no worker ever waits on another), and boundary
/// emissions are naturally serialized: iteration i+1 cannot complete before
/// the worker that completed iteration i last has moved on. With more than
/// one worker the hook therefore fires on a worker thread (see engine.hpp).
LayoutResult run_hogwild(const graph::LeanGraph& g, const LayoutConfig& cfg,
                         XYStore& store, const ProgressHook& hook,
                         ThreadPool& pool) {
    LayoutResult result;
    result.eta_schedule = make_engine_schedule(
        cfg, static_cast<double>(g.max_path_nuc_length()));

    const PairSampler sampler(g, cfg);
    const std::uint64_t n_steps = cfg.steps_per_iteration(g.total_path_steps());
    const std::uint32_t n_workers = std::max<std::uint32_t>(pool.size(), 1);
    const rng::Xoshiro256Plus seeder(cfg.seed);

    const bool want_progress = static_cast<bool>(hook);
    std::unique_ptr<std::atomic<std::uint32_t>[]> arrivals;
    std::unique_ptr<std::atomic<std::uint64_t>[]> boundary_skipped;
    if (want_progress) {
        arrivals = std::make_unique<std::atomic<std::uint32_t>[]>(cfg.iter_max);
        boundary_skipped =
            std::make_unique<std::atomic<std::uint64_t>[]>(cfg.iter_max);
    }

    std::atomic<std::uint64_t> skipped{0};
    std::atomic<std::uint64_t> updates{0};
    const auto t0 = std::chrono::steady_clock::now();
    pool.run([&](std::uint32_t tid) {
        rng::Xoshiro256Plus rng = seeder;
        for (std::uint32_t j = 0; j < tid; ++j) rng.jump();
        const std::uint64_t share = shard_share(n_steps, n_workers, tid);
        std::uint64_t sk = 0;
        std::uint32_t iters = 0;
        for (; iters < cfg.iter_max; ++iters) {
            // Cooperative cancel: each worker stops at its next iteration
            // boundary and counts only the iterations it finished, so a
            // cancelled run reports the updates it actually made.
            if (cfg.cancel_requested()) break;
            const std::uint64_t it_sk =
                run_scalar_iter(sampler, result.eta_schedule[iters],
                                cfg.cooling(iters), store, rng, share);
            sk += it_sk;
            if (!want_progress) continue;
            boundary_skipped[iters].fetch_add(it_sk, std::memory_order_relaxed);
            if (arrivals[iters].fetch_add(1, std::memory_order_acq_rel) + 1 ==
                n_workers) {
                IterationStats s;
                s.iteration = iters;
                s.iter_max = cfg.iter_max;
                s.eta = result.eta_schedule[iters];
                s.updates = n_steps;
                s.skipped =
                    boundary_skipped[iters].load(std::memory_order_relaxed);
                hook(s);
            }
        }
        skipped.fetch_add(sk, std::memory_order_relaxed);
        updates.fetch_add(iters * share, std::memory_order_relaxed);
    });
    const auto t1 = std::chrono::steady_clock::now();
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    result.updates = updates.load();
    result.skipped = skipped.load();
    result.layout = store.snapshot();
    return result;
}

class CpuLayoutEngine final : public LayoutEngine {
public:
    explicit CpuLayoutEngine(CpuLoop loop) : loop_(loop) {}

    std::string_view name() const noexcept override {
        return loop_ == CpuLoop::kHogwild ? "cpu-soa" : "cpu-pipelined";
    }

protected:
    void do_init() override {
        // Resolving here also validates cfg.kernel: an unknown name throws
        // before any work starts, on both loops (the Hogwild loop applies
        // terms as it samples them and never drains a batch).
        kernel_ = make_update_kernel(cfg_.kernel);
        // Hogwild: one worker per thread, none (inline on the caller) for a
        // single thread. Pipelined: always at least one producer, so even a
        // single-threaded config overlaps sampling with the consumer's
        // updates. The pool outlives every run(): workers are spawned once
        // per init(), never inside the iteration loop, and recreated only
        // when the size changes.
        const std::uint32_t n = loop_ == CpuLoop::kHogwild
                                    ? (cfg_.threads > 1 ? cfg_.threads : 0)
                                    : std::max<std::uint32_t>(cfg_.threads, 1);
        if (!pool_ || pool_->size() != n) {
            pool_ = std::make_unique<ThreadPool>(n);
        }
    }

    LayoutResult do_run(const LayoutConfig& cfg) override {
        ProgressHook hook;
        if (has_progress_hook()) {
            hook = [this](const IterationStats& s) { emit_progress(s); };
        }
        XYStore store(make_initial_layout(*graph_, cfg));
        if (loop_ == CpuLoop::kHogwild) {
            return run_hogwild(*graph_, cfg, store, hook, *pool_);
        }
        return run_pipelined(*graph_, cfg, store, *kernel_, hook, *pool_);
    }

private:
    CpuLoop loop_;
    std::unique_ptr<const UpdateKernel> kernel_;
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

std::unique_ptr<LayoutEngine> make_cpu_engine(CpuLoop loop) {
    return std::make_unique<CpuLayoutEngine>(loop);
}

LayoutResult layout_cpu_from(const graph::LeanGraph& g, const LayoutConfig& cfg,
                             const Layout& initial) {
    make_update_kernel(cfg.kernel);  // validates cfg.kernel, as init() does
    ThreadPool pool(cfg.threads > 1 ? cfg.threads : 0);
    XYStore store(initial);
    return run_hogwild(g, cfg, store, {}, pool);
}

LayoutResult layout_cpu(const graph::LeanGraph& g, const LayoutConfig& cfg) {
    return layout_cpu_from(g, cfg, make_initial_layout(g, cfg));
}

}  // namespace pgl::core
