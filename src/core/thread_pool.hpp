#pragma once
// Persistent worker pool shared by every multithreaded backend. The paper's
// throughput argument (Sec. III) assumes the update loop runs at memory
// speed; spawning and joining std::threads every iteration — what the
// first-cut engines did — costs tens of microseconds per iteration and
// dominates short runs. A ThreadPool keeps its workers alive for the life
// of the engine: each dispatch hands every worker a job(tid) and the
// barrier-style wait() replaces the per-iteration join.
//
// The dispatch/wait pair establishes happens-before edges in both
// directions (mutex + condition variable), so a producer thread's writes to
// a TermBatch are visible to whoever consumes the batch after wait()
// returns — the property the double-buffered pipelined engine relies on.
//
// A pool of size 0 is a valid degenerate pool: run() executes the job
// inline on the caller, so single-threaded configurations pay no
// synchronization cost and stay bit-exact with the legacy scalar loop.
// Workers run wherever the OS schedules them; none is pinned to a CPU.
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace pgl::core {

/// Exact per-shard share of an iteration's N_steps: the remainder goes to
/// the first shards, so the shares sum to n_steps (no rounding up — the
/// reported update count matches the steps actually executed). Shared by
/// every engine that splits the update stream over pool workers.
constexpr std::uint64_t shard_share(std::uint64_t n_steps,
                                    std::uint32_t n_shards,
                                    std::uint32_t tid) noexcept {
    return n_steps / n_shards + (tid < n_steps % n_shards ? 1 : 0);
}

class ThreadPool {
public:
    /// Job executed by every worker; `tid` is the worker index in
    /// [0, size()).
    using Job = std::function<void(std::uint32_t)>;

    /// Spawns `n_threads` persistent workers (0 = inline execution).
    explicit ThreadPool(std::uint32_t n_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::uint32_t size() const noexcept {
        return static_cast<std::uint32_t>(workers_.size());
    }

    /// Starts job(tid) on every worker and returns immediately. Exactly one
    /// job may be in flight; call wait() before the next launch(). On a
    /// size-0 pool the job runs inline (as job(0)) before launch returns.
    void launch(Job job);

    /// Blocks until the launched job has finished on every worker. No-op if
    /// nothing is in flight.
    void wait();

    /// Convenience barrier dispatch: launch(job) then wait().
    void run(Job job) {
        launch(std::move(job));
        wait();
    }

private:
    void worker_loop(std::uint32_t tid);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    Job job_;
    std::uint64_t generation_ = 0;  ///< bumped per launch; workers track it
    std::uint32_t remaining_ = 0;   ///< workers still running the current job
    bool in_flight_ = false;
    bool stopping_ = false;

    // Telemetry handles resolved once at construction (registry lookups are
    // mutex-protected; the per-dispatch path must not pay for them).
    // `pool.dispatch_wait_ns` = launch-to-worker-pickup latency per worker;
    // `pool.barrier_wait_ns` = time the caller blocks in wait().
    telemetry::Counter dispatches_;
    telemetry::Histogram dispatch_wait_;
    telemetry::Histogram barrier_wait_;
    std::uint64_t launch_ns_ = 0;  ///< guarded by mutex_
};

}  // namespace pgl::core
