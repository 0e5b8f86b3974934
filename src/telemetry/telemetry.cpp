#include "telemetry/telemetry.hpp"

#include <fstream>

#ifndef PGL_TELEMETRY_DISABLED

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

namespace pgl::telemetry {
namespace {

std::chrono::steady_clock::time_point process_start() {
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

// Touch the epoch at static-init time so concurrent first calls to now_ns()
// cannot race on the function-local static from multiple threads mid-run.
const bool epoch_pinned = (process_start(), true);

/// Minimal JSON string escaping for metric/span names (which are
/// code-controlled, but a stray quote must not corrupt an export).
std::string jquote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
    return out;
}

std::string fmt_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

}  // namespace

std::uint64_t now_ns() {
    (void)epoch_pinned;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - process_start())
            .count());
}

// --- Counter -----------------------------------------------------------

struct Counter::Impl {
    std::atomic<std::uint64_t> value{0};
};

void Counter::add(std::uint64_t n) const noexcept {
    impl_->value.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
    return impl_->value.load(std::memory_order_relaxed);
}

void Counter::reset() const noexcept {
    impl_->value.store(0, std::memory_order_relaxed);
}

// --- Histogram ---------------------------------------------------------
//
// Bucketing: values 0..15 get exact buckets 0..15. For v >= 16 the major
// bucket is floor(log2 v) in [4, 63] and the 3 bits below the leading bit
// pick one of 8 linear sub-buckets, giving bucket widths of lower/8 — a
// 12.5% worst-case relative error, HDR-histogram style, in a fixed 496-slot
// array of relaxed atomics (no allocation or locking on record).

struct Histogram::Impl {
    std::atomic<std::uint64_t> buckets[Histogram::kNumBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~0ull};
    std::atomic<std::uint64_t> max{0};
};

std::uint32_t Histogram::bucket_index(std::uint64_t v) noexcept {
    if (v < 16) return static_cast<std::uint32_t>(v);
    const auto exp = static_cast<std::uint32_t>(std::bit_width(v) - 1);
    const auto sub = static_cast<std::uint32_t>((v >> (exp - 3)) & 7u);
    return 16 + (exp - 4) * 8 + sub;
}

std::uint64_t Histogram::bucket_lower(std::uint32_t b) noexcept {
    if (b < 16) return b;
    const std::uint32_t exp = (b - 16) / 8 + 4;
    const std::uint64_t sub = (b - 16) % 8;
    return (8ull + sub) << (exp - 3);
}

void Histogram::record(std::uint64_t v) const noexcept {
    impl_->buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    impl_->count.fetch_add(1, std::memory_order_relaxed);
    impl_->sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = impl_->min.load(std::memory_order_relaxed);
    while (v < cur &&
           !impl_->min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = impl_->max.load(std::memory_order_relaxed);
    while (v > cur &&
           !impl_->max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

std::uint64_t Histogram::count() const noexcept {
    return impl_->count.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::sum() const noexcept {
    return impl_->sum.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::min() const noexcept {
    const std::uint64_t m = impl_->min.load(std::memory_order_relaxed);
    return m == ~0ull ? 0 : m;
}

std::uint64_t Histogram::max() const noexcept {
    return impl_->max.load(std::memory_order_relaxed);
}

double Histogram::quantile(double q) const noexcept {
    q = std::clamp(q, 0.0, 1.0);
    // Snapshot the buckets; their own sum is the consistent total (the
    // shared `count` may include records whose bucket increment we missed).
    std::uint64_t counts[kNumBuckets];
    std::uint64_t total = 0;
    for (std::uint32_t b = 0; b < kNumBuckets; ++b) {
        counts[b] = impl_->buckets[b].load(std::memory_order_relaxed);
        total += counts[b];
    }
    if (total == 0) return 0.0;
    const double rank = q * static_cast<double>(total - 1);
    std::uint64_t seen = 0;
    for (std::uint32_t b = 0; b < kNumBuckets; ++b) {
        if (counts[b] == 0) continue;
        if (static_cast<double>(seen + counts[b] - 1) >= rank) {
            // Interpolate inside the bucket between its bounds, clamped to
            // the observed min/max so tiny histograms stay tight.
            const double lo = static_cast<double>(bucket_lower(b));
            const double hi =
                b + 1 < kNumBuckets ? static_cast<double>(bucket_lower(b + 1))
                                    : lo * 1.125;
            const double within =
                counts[b] <= 1
                    ? 0.0
                    : (rank - static_cast<double>(seen)) /
                          static_cast<double>(counts[b] - 1);
            double est = lo + (hi - lo) * within;
            est = std::max(est, static_cast<double>(min()));
            est = std::min(est, static_cast<double>(max()));
            return est;
        }
        seen += counts[b];
    }
    return static_cast<double>(max());
}

void Histogram::merge_from(const Histogram& other) const noexcept {
    for (std::uint32_t b = 0; b < kNumBuckets; ++b) {
        const std::uint64_t n =
            other.impl_->buckets[b].load(std::memory_order_relaxed);
        if (n) impl_->buckets[b].fetch_add(n, std::memory_order_relaxed);
    }
    const std::uint64_t count = other.count();
    impl_->count.fetch_add(count, std::memory_order_relaxed);
    impl_->sum.fetch_add(other.sum(), std::memory_order_relaxed);
    if (count > 0) {
        std::uint64_t v = other.min();
        std::uint64_t cur = impl_->min.load(std::memory_order_relaxed);
        while (v < cur && !impl_->min.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
        v = other.max();
        cur = impl_->max.load(std::memory_order_relaxed);
        while (v > cur && !impl_->max.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }
}

void Histogram::reset() const noexcept {
    for (std::uint32_t b = 0; b < kNumBuckets; ++b) {
        impl_->buckets[b].store(0, std::memory_order_relaxed);
    }
    impl_->count.store(0, std::memory_order_relaxed);
    impl_->sum.store(0, std::memory_order_relaxed);
    impl_->min.store(~0ull, std::memory_order_relaxed);
    impl_->max.store(0, std::memory_order_relaxed);
}

// --- Registry ----------------------------------------------------------

struct Registry::Impl {
    std::mutex mu;
    // std::map: node stability means the Impl addresses handed out in
    // Counter/Histogram handles stay valid for the process lifetime.
    std::map<std::string, Counter::Impl> counters;
    std::map<std::string, Histogram::Impl> histograms;
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::instance() {
    static Registry r;
    return r;
}

Counter Registry::counter(const std::string& name) {
    std::lock_guard<std::mutex> lk(impl_->mu);
    return Counter(&impl_->counters[name]);
}

Histogram Registry::histogram(const std::string& name) {
    std::lock_guard<std::mutex> lk(impl_->mu);
    return Histogram(&impl_->histograms[name]);
}

void Registry::reset() {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (auto& [name, c] : impl_->counters) {
        c.value.store(0, std::memory_order_relaxed);
    }
    for (auto& [name, h] : impl_->histograms) {
        Histogram(&h).reset();
    }
}

// --- Tracer ------------------------------------------------------------

namespace {

struct TraceEvent {
    std::string name;
    std::string cat;
    char ph;  // 'X' duration, 'b'/'e' async begin/end
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;  // X only
    std::uint32_t tid;
    std::uint64_t id;  // async only

    void append_json(std::string& out) const {
        out += "{\"name\":";
        out += jquote(name);
        if (!cat.empty()) {
            out += ",\"cat\":";
            out += jquote(cat);
        } else {
            out += ",\"cat\":\"pgl\"";
        }
        out += ",\"ph\":\"";
        out += ph;
        out += "\",\"ts\":";
        out += fmt_double(static_cast<double>(ts_ns) / 1000.0);
        if (ph == 'X') {
            out += ",\"dur\":";
            out += fmt_double(static_cast<double>(dur_ns) / 1000.0);
        }
        if (ph == 'b' || ph == 'e') {
            out += ",\"id\":";
            out += std::to_string(id);
        }
        out += ",\"pid\":1,\"tid\":";
        out += std::to_string(tid);
        out += "}";
    }
};

std::uint32_t this_thread_tid() {
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t tid = next.fetch_add(1);
    return tid;
}

}  // namespace

struct Tracer::Impl {
    std::atomic<bool> enabled{false};
    std::mutex mu;
    std::vector<TraceEvent> events;
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
    static Tracer t;
    return t;
}

void Tracer::set_enabled(bool on) noexcept {
    impl_->enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() const noexcept {
    return impl_->enabled.load(std::memory_order_relaxed);
}

void Tracer::clear() noexcept {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->events.clear();
}

void Tracer::record_span(const std::string& name, const std::string& cat,
                         std::uint64_t start_ns, std::uint64_t dur_ns) {
    if (!enabled()) return;
    TraceEvent ev{name, cat, 'X', start_ns, dur_ns, this_thread_tid(), 0};
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->events.push_back(std::move(ev));
}

void Tracer::record_async(const std::string& name, const std::string& cat,
                          std::uint64_t id, std::uint64_t start_ns,
                          std::uint64_t end_ns) {
    if (!enabled()) return;
    const std::uint32_t tid = this_thread_tid();
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->events.push_back(TraceEvent{name, cat, 'b', start_ns, 0, tid, id});
    impl_->events.push_back(TraceEvent{name, cat, 'e', end_ns, 0, tid, id});
}

// --- StageSpan ---------------------------------------------------------

StageSpan::StageSpan(std::string name, std::string cat)
    : name_(std::move(name)), cat_(std::move(cat)), start_ns_(now_ns()) {}

std::uint64_t StageSpan::elapsed_ns() const noexcept {
    return now_ns() - start_ns_;
}

StageSpan::~StageSpan() {
    const std::uint64_t dur = now_ns() - start_ns_;
    Registry::instance().histogram("span." + name_).record(dur);
    Tracer::instance().record_span(name_, cat_, start_ns_, dur);
}

// --- Exporters ---------------------------------------------------------

namespace {

void append_histogram_json(std::string& out, const Histogram& h) {
    out += "{\"count\":" + std::to_string(h.count());
    out += ",\"sum\":" + std::to_string(h.sum());
    out += ",\"min\":" + std::to_string(h.min());
    out += ",\"max\":" + std::to_string(h.max());
    out += ",\"p50\":" + fmt_double(h.quantile(0.50));
    out += ",\"p95\":" + fmt_double(h.quantile(0.95));
    out += ",\"p99\":" + fmt_double(h.quantile(0.99));
    out += "}";
}

}  // namespace

std::string snapshot_json() {
    // Walk the registry maps directly (sorted keys -> stable output).
    auto& reg = Registry::instance();
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::string> hist_names;
    {
        // Collect names first, then format outside the registry lock using
        // the stable handles.
        Registry::Impl* impl = reg.impl_;
        std::lock_guard<std::mutex> lk(impl->mu);
        for (auto& [name, c] : impl->counters) {
            counters.emplace_back(name,
                                  c.value.load(std::memory_order_relaxed));
        }
        for (auto& [name, h] : impl->histograms) {
            hist_names.push_back(name);
        }
    }
    std::string out = "{\"enabled\":true,\"counters\":{";
    bool first = true;
    for (const auto& [name, v] : counters) {
        if (!first) out += ",";
        first = false;
        out += jquote(name) + ":" + std::to_string(v);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& name : hist_names) {
        if (!first) out += ",";
        first = false;
        out += jquote(name) + ":";
        append_histogram_json(out, reg.histogram(name));
    }
    out += "}}";
    return out;
}


bool write_chrome_trace(const std::string& path) {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    {
        Tracer& tr = Tracer::instance();
        std::lock_guard<std::mutex> lk(tr.impl_->mu);
        bool first = true;
        for (const TraceEvent& ev : tr.impl_->events) {
            if (!first) out += ",\n";
            first = false;
            ev.append_json(out);
        }
    }
    out += "],\"telemetryEnabled\":true,\"telemetry\":";
    out += snapshot_json();
    out += "}\n";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f << out;
    return static_cast<bool>(f);
}

}  // namespace pgl::telemetry

#else  // PGL_TELEMETRY_DISABLED

namespace pgl::telemetry {

std::uint64_t now_ns() { return 0; }

std::string snapshot_json() {
    return "{\"enabled\":false,\"counters\":{},\"histograms\":{}}";
}

bool write_chrome_trace(const std::string& path) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[],"
         "\"telemetryEnabled\":false,\"telemetry\":"
      << snapshot_json() << "}\n";
    return static_cast<bool>(f);
}

}  // namespace pgl::telemetry

#endif  // PGL_TELEMETRY_DISABLED
