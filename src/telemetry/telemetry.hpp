// Process-wide telemetry: named counters, fixed-bucket histograms, RAII
// stage spans, and two exporters (stable JSON snapshot + Chrome trace-event
// file). Every subsystem records through the singleton Registry/Tracer so a
// single `pgl_layout --trace out.json` (or the daemon's `metrics` wire
// command) captures the whole process.
//
// Design constraints, in order:
//
//  1. Determinism. Instrumentation only *observes* — it never draws random
//     numbers, reorders work, or feeds back into layout math. The
//     byte-reproducibility ctests run with telemetry compiled in and ON.
//  2. Hot-path cost. Counter::add is one relaxed atomic fetch_add;
//     Histogram::record is a bucket index computation plus four relaxed
//     atomic ops (no locks, no allocation). Call sites on per-term paths
//     accumulate locally and flush once per batch. Registry lookups hit a
//     mutex, so hot paths resolve their Counter&/Histogram& once (the
//     returned references are stable for process lifetime) and reuse them.
//  3. Compile-out proof. -DPGL_TELEMETRY=OFF defines PGL_TELEMETRY_DISABLED
//     and this header degrades to inline no-ops: call sites compile
//     unchanged, the exporters emit valid-but-empty documents, and the
//     binary carries no atomics on the hot path at all.
//
// Metric naming: dot-separated `<subsystem>.<metric>[_<unit>]` — e.g.
// `engine.updates`, `pool.dispatch_wait_ns`, `kernel.simd.vector_groups`,
// `serve.queue_wait_ns`. Span histograms are auto-named `span.<span name>`.
// Durations are always nanoseconds (`_ns`).
#pragma once

#include <cstdint>
#include <string>

namespace pgl::telemetry {

/// Nanoseconds since process start (steady clock). Returns 0 when telemetry
/// is compiled out.
std::uint64_t now_ns();

/// Stable JSON document: {"enabled":bool,"counters":{...},"histograms":{...}}
/// with keys sorted, histogram objects carrying count/sum/min/max/p50/p95/p99.
std::string snapshot_json();

/// Writes a Chrome trace-event file (loadable in chrome://tracing and
/// Perfetto). Duration events for stage spans, async events for queue waits,
/// plus the full registry snapshot under a top-level "telemetry" key (extra
/// keys are tolerated by both viewers). Always writes a well-formed document,
/// even compiled out (empty traceEvents, "telemetryEnabled": false).
/// Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

#ifndef PGL_TELEMETRY_DISABLED

/// Monotonic named counter. Relaxed atomics: totals are exact, cross-counter
/// ordering is not promised (nor needed).
class Counter {
public:
    void add(std::uint64_t n = 1) const noexcept;
    std::uint64_t value() const noexcept;
    void reset() const noexcept;

private:
    struct Impl;
    Impl* impl_;
    friend class Registry;
    explicit Counter(Impl* impl) : impl_(impl) {}
};

/// Fixed-bucket log2 histogram over uint64 values (use ns for durations).
/// Values < 16 get exact buckets; above that, each power-of-two range is
/// split into 8 linear sub-buckets, so any recorded value lands in a bucket
/// whose width is at most 12.5% of its lower bound — quantile estimates
/// carry the same bound. record() is lock-free (relaxed atomics); snapshots
/// and merges tolerate concurrent recording (totals may trail by in-flight
/// records, never torn).
class Histogram {
public:
    void record(std::uint64_t value) const noexcept;
    std::uint64_t count() const noexcept;
    std::uint64_t sum() const noexcept;
    std::uint64_t min() const noexcept;  ///< 0 when empty
    std::uint64_t max() const noexcept;  ///< 0 when empty
    /// Quantile estimate in [bucket lower, bucket upper] of the rank'd
    /// sample, linearly interpolated inside the bucket. q in [0, 1].
    double quantile(double q) const noexcept;
    /// Adds other's buckets/count/sum into this one (associative and
    /// commutative up to concurrent records).
    void merge_from(const Histogram& other) const noexcept;
    void reset() const noexcept;

    /// Bucket index for a value — exposed for tests.
    static std::uint32_t bucket_index(std::uint64_t value) noexcept;
    /// Inclusive lower bound of a bucket — exposed for tests.
    static std::uint64_t bucket_lower(std::uint32_t bucket) noexcept;
    static constexpr std::uint32_t kNumBuckets = 16 + 60 * 8;

private:
    struct Impl;
    Impl* impl_;
    friend class Registry;
    explicit Histogram(Impl* impl) : impl_(impl) {}
};

/// Process-wide metric registry. Lookup is mutex-protected; the returned
/// handles are stable for the process lifetime, so resolve once and cache
/// (function-local static references are the idiom on hot paths).
class Registry {
public:
    static Registry& instance();
    Counter counter(const std::string& name);
    Histogram histogram(const std::string& name);
    /// Zeroes every counter and histogram (benches isolate phases with it).
    void reset();

private:
    Registry();
    struct Impl;
    Impl* impl_;
    friend std::string snapshot_json();
};

/// Span/trace collector. Disabled by default: StageSpan still feeds its
/// duration into the `span.<name>` histogram (cheap, powers --timing), but
/// trace events are only retained between set_enabled(true) and the export.
class Tracer {
public:
    static Tracer& instance();
    void set_enabled(bool on) noexcept;
    bool enabled() const noexcept;
    void clear() noexcept;
    /// Duration event recorded after the fact on the calling thread's track.
    void record_span(const std::string& name, const std::string& cat,
                     std::uint64_t start_ns, std::uint64_t dur_ns);
    /// Async begin/end pair (its own track, may overlap thread activity —
    /// queue waits use this so they don't fight the worker's span stack).
    void record_async(const std::string& name, const std::string& cat,
                      std::uint64_t id, std::uint64_t start_ns,
                      std::uint64_t end_ns);

private:
    Tracer();
    struct Impl;
    Impl* impl_;
    friend bool write_chrome_trace(const std::string&);
};

/// RAII stage timer. On destruction records the elapsed ns into the
/// `span.<name>` registry histogram always, and appends a Chrome duration
/// event when the Tracer is enabled. Spans on one thread nest naturally
/// (inner spans close first), which is exactly the Chrome trace contract.
class StageSpan {
public:
    explicit StageSpan(std::string name, std::string cat = "");
    ~StageSpan();
    StageSpan(const StageSpan&) = delete;
    StageSpan& operator=(const StageSpan&) = delete;
    /// Elapsed ns so far (tests and mid-span reporting).
    std::uint64_t elapsed_ns() const noexcept;

private:
    std::string name_;
    std::string cat_;
    std::uint64_t start_ns_;
};

#else  // PGL_TELEMETRY_DISABLED: the whole API degrades to inline no-ops.

class Counter {
public:
    void add(std::uint64_t = 1) const noexcept {}
    std::uint64_t value() const noexcept { return 0; }
    void reset() const noexcept {}
};

class Histogram {
public:
    void record(std::uint64_t) const noexcept {}
    std::uint64_t count() const noexcept { return 0; }
    std::uint64_t sum() const noexcept { return 0; }
    std::uint64_t min() const noexcept { return 0; }
    std::uint64_t max() const noexcept { return 0; }
    double quantile(double) const noexcept { return 0.0; }
    void merge_from(const Histogram&) const noexcept {}
    void reset() const noexcept {}
    static std::uint32_t bucket_index(std::uint64_t) noexcept { return 0; }
    static std::uint64_t bucket_lower(std::uint32_t) noexcept { return 0; }
    static constexpr std::uint32_t kNumBuckets = 0;
};

class Registry {
public:
    static Registry& instance() {
        static Registry r;
        return r;
    }
    Counter counter(const std::string&) { return Counter{}; }
    Histogram histogram(const std::string&) { return Histogram{}; }
    void reset() {}
};

class Tracer {
public:
    static Tracer& instance() {
        static Tracer t;
        return t;
    }
    void set_enabled(bool) noexcept {}
    bool enabled() const noexcept { return false; }
    void clear() noexcept {}
    void record_span(const std::string&, const std::string&, std::uint64_t,
                     std::uint64_t) {}
    void record_async(const std::string&, const std::string&, std::uint64_t,
                      std::uint64_t, std::uint64_t) {}
};

class StageSpan {
public:
    explicit StageSpan(std::string, std::string = "") {}
    std::uint64_t elapsed_ns() const noexcept { return 0; }
};

#endif  // PGL_TELEMETRY_DISABLED

}  // namespace pgl::telemetry
