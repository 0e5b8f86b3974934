#include "core/thread_pool.hpp"

namespace pgl::core {

ThreadPool::ThreadPool(std::uint32_t n_threads)
    : dispatches_(telemetry::Registry::instance().counter("pool.dispatches")),
      dispatch_wait_(
          telemetry::Registry::instance().histogram("pool.dispatch_wait_ns")),
      barrier_wait_(
          telemetry::Registry::instance().histogram("pool.barrier_wait_ns")) {
    workers_.reserve(n_threads);
    for (std::uint32_t tid = 0; tid < n_threads; ++tid) {
        workers_.emplace_back([this, tid] { worker_loop(tid); });
    }
}

void ThreadPool::worker_loop(std::uint32_t tid) {
    std::uint64_t seen_generation = 0;
    for (;;) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_work_.wait(lock, [&] {
            return stopping_ || generation_ != seen_generation;
        });
        if (stopping_) return;
        seen_generation = generation_;
        dispatch_wait_.record(telemetry::now_ns() - launch_ns_);
        // job_ stays untouched until every worker checks in below, so
        // reading it by reference outside the lock is safe.
        const Job& job = job_;
        lock.unlock();

        job(tid);

        lock.lock();
        if (--remaining_ == 0) {
            in_flight_ = false;
            lock.unlock();
            cv_done_.notify_all();
        }
    }
}

ThreadPool::~ThreadPool() {
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::launch(Job job) {
    if (workers_.empty()) {
        job(0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = std::move(job);
        remaining_ = size();
        in_flight_ = true;
        ++generation_;
        launch_ns_ = telemetry::now_ns();
    }
    dispatches_.add(1);
    cv_work_.notify_all();
}

void ThreadPool::wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!in_flight_) return;
    const std::uint64_t t0 = telemetry::now_ns();
    cv_done_.wait(lock, [this] { return !in_flight_; });
    barrier_wait_.record(telemetry::now_ns() - t0);
}

}  // namespace pgl::core
