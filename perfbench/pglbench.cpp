// Measurement harness behind perfbench/run.py. It generates the input files
// of a workload, or runs one workload on them and prints one JSON record of
// raw samples on stdout. run.py owns the workload sizes,
// reduces the samples to metrics and judges the checks; this binary only
// measures and reports.
//
//   pglbench gen-genome  --out F.gfa --components K --scale X --sub S
//   pglbench gen-serve   --small F.gfa --large F.gfa --backbone B
//                        --paths P
//   pglbench run-genome  --graph F.gfa --dir D --seconds S --trace 0|1
//                        --min-reps M --quality 0|1 --seed N
//   pglbench run-serve   --small F.gfa --large F.gfa --dir D --seconds S
//                        --trace 0|1 --seed N --jobs J --iters I
//
// Untraced runs (--trace 0) go through driver::run_layout and the daemon
// exactly as a user would. Traced runs (--trace 1) call each layer's public
// functions directly, in the order run_layout calls them, under spans this
// harness records itself; nested work (multilevel passes inside partition
// components, engines inside daemon jobs, pool waits inside the engine) is
// read from the histograms and counters the library already registers.
// Traced runs also repeat the untraced call under one "reference" span, so
// the tracing overhead is measured in the same process; run.py leaves
// reference spans out of the layer shares and of the traced wall time.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/layout.hpp"
#include "core/topology.hpp"
#include "driver/driver.hpp"
#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "io/lay_io.hpp"
#include "metrics/path_stress.hpp"
#include "multilevel/coarsen.hpp"
#include "partition/partition.hpp"
#include "rng/splitmix64.hpp"
#include "serve/cache.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using serve::JsonArray;
using serve::JsonObject;
using serve::JsonValue;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- arguments -------------------------------------------------------------

class Args {
public:
    Args(int argc, char** argv) {
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            if (key.rfind("--", 0) != 0) {
                throw std::invalid_argument("expected --key value, got " + key);
            }
            kv_[key.substr(2)] = argv[i + 1];
        }
        if (argc % 2 != 0) {
            throw std::invalid_argument("option without a value");
        }
    }
    const std::string& str(const std::string& k) const {
        const auto it = kv_.find(k);
        if (it == kv_.end()) throw std::invalid_argument("missing --" + k);
        return it->second;
    }
    std::uint64_t u64(const std::string& k) const {
        return std::stoull(str(k));
    }
    std::uint32_t u32(const std::string& k) const {
        return static_cast<std::uint32_t>(u64(k));
    }
    double num(const std::string& k) const { return std::stod(str(k)); }

private:
    std::map<std::string, std::string> kv_;
};

// --- the harness's own spans -------------------------------------------------

/// One recorded span. Every span of a traced run carries the same run id
/// and hangs off the single root span ("run"), so run.py can rebuild the
/// tree, compute each layer's self time and check the nesting.
struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string layer;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t thread = 0;
};

class SpanLog {
public:
    static SpanLog& instance() {
        static SpanLog log;
        return log;
    }
    bool enabled = false;
    const std::uint64_t run_id = static_cast<std::uint64_t>(::getpid());
    const Clock::time_point origin = Clock::now();

    std::uint64_t next_id() { return next_.fetch_add(1); }
    void add(SpanRecord r) {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(r));
    }
    JsonValue to_json() const {
        std::lock_guard<std::mutex> lock(mu_);
        JsonArray out;
        for (const SpanRecord& s : spans_) {
            JsonObject o;
            o["run"] = JsonValue(run_id);
            o["id"] = JsonValue(s.id);
            o["parent"] = JsonValue(s.parent);
            o["layer"] = JsonValue(s.layer);
            o["name"] = JsonValue(s.name);
            o["start_s"] = JsonValue(s.start_s);
            o["end_s"] = JsonValue(s.end_s);
            o["thread"] = JsonValue(s.thread);
            out.push_back(JsonValue(std::move(o)));
        }
        return JsonValue(std::move(out));
    }

private:
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
    std::atomic<std::uint64_t> next_{1};
};

thread_local std::uint64_t t_current_span = 0;
std::atomic<std::uint64_t> g_thread_ids{0};
thread_local const std::uint64_t t_thread_id = g_thread_ids.fetch_add(1);

/// RAII span. Always measures its duration (the untraced code paths read
/// seconds() too); records itself only when the SpanLog is enabled. A span
/// opened on a new thread names its parent explicitly.
class Span {
public:
    Span(std::string layer, std::string name)
        : Span(std::move(layer), std::move(name), t_current_span) {}
    Span(std::string layer, std::string name, std::uint64_t parent)
        : layer_(std::move(layer)),
          name_(std::move(name)),
          parent_(parent),
          saved_(t_current_span),
          start_(Clock::now()) {
        if (SpanLog::instance().enabled) {
            id_ = SpanLog::instance().next_id();
            t_current_span = id_;
        }
    }
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span now (idempotent) and returns its duration.
    double close() {
        if (!closed_) {
            end_ = Clock::now();
            closed_ = true;
            if (id_ != 0) {
                SpanLog& log = SpanLog::instance();
                const auto rel = [&](Clock::time_point t) {
                    return std::chrono::duration<double>(t - log.origin).count();
                };
                log.add({id_, parent_, layer_, name_, rel(start_), rel(end_),
                         t_thread_id});
                t_current_span = saved_;
            }
        }
        return seconds();
    }
    double seconds() const {
        return std::chrono::duration<double>((closed_ ? end_ : Clock::now()) -
                                             start_)
            .count();
    }

private:
    std::string layer_, name_;
    std::uint64_t parent_;
    std::uint64_t saved_;
    std::uint64_t id_ = 0;
    Clock::time_point start_, end_;
    bool closed_ = false;
};

// --- samples and checks --------------------------------------------------------

/// The record one run prints: named sample lists (reduced by run.py), named
/// per-repetition counts (checked for drift by run.py), one entry per
/// attempted unit of work with the output checks it failed, and the nested
/// layer time that no harness span can wrap.
struct Record {
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, std::vector<double>> counts;
    JsonArray units;
    JsonArray nested_time;
    JsonObject input;

    void sample(const std::string& name, double v) { samples[name].push_back(v); }
    void count(const std::string& name, double v) { counts[name].push_back(v); }
    /// `seconds` of `layer` ran inside the self time of the spans of layer
    /// `within`, as wall time: thread-seconds read from the library's
    /// histograms, divided by the number of workers that ran them in
    /// parallel. run.py moves them from `within`'s self time to `layer`'s.
    void nested(const std::string& layer, const std::string& within, double seconds) {
        JsonObject o;
        o["layer"] = JsonValue(layer);
        o["within"] = JsonValue(within);
        o["seconds"] = JsonValue(seconds);
        nested_time.push_back(JsonValue(std::move(o)));
    }
    void unit(const std::string& what, const std::vector<std::string>& errors) {
        JsonObject o;
        o["what"] = JsonValue(what);
        JsonArray errs;
        for (const auto& e : errors) errs.push_back(JsonValue(e));
        o["errors"] = JsonValue(std::move(errs));
        units.push_back(JsonValue(std::move(o)));
    }

    void print() const {
        JsonObject o;
        const auto lists = [](const std::map<std::string, std::vector<double>>& m) {
            JsonObject out;
            for (const auto& [name, values] : m) {
                JsonArray a;
                for (double v : values) a.push_back(JsonValue(v));
                out[name] = JsonValue(std::move(a));
            }
            return JsonValue(std::move(out));
        };
        o["samples"] = lists(samples);
        o["counts"] = lists(counts);
        o["units"] = JsonValue(units);
        o["nested"] = JsonValue(nested_time);
        o["input"] = JsonValue(input);
        o["spans"] = SpanLog::instance().to_json();
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        o["peak_rss_mb"] = JsonValue(static_cast<double>(ru.ru_maxrss) / 1024.0);
        std::cout << JsonValue(std::move(o)).dump() << std::endl;
    }
};

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Output checks shared by every workload: one segment per node and every
/// coordinate finite.
std::vector<std::string> check_layout(const core::Layout& l, std::uint64_t nodes) {
    std::vector<std::string> errors;
    if (l.size() != nodes) {
        errors.push_back("segments " + std::to_string(l.size()) + " != nodes " +
                         std::to_string(nodes));
    }
    for (const auto* v : {&l.start_x, &l.start_y, &l.end_x, &l.end_y}) {
        if (!std::all_of(v->begin(), v->end(),
                         [](float f) { return std::isfinite(f); })) {
            errors.push_back("non-finite coordinate");
            break;
        }
    }
    return errors;
}

/// Reads a published .lay back, checks it and returns its digest: the top
/// 48 bits of its FNV-1a hash, so the value survives a JSON double.
std::uint64_t check_published(const std::string& path, std::uint64_t nodes,
                            std::vector<std::string>& errors) {
    Span span("check", "check.published_layout");
    const std::string bytes = read_file(path);
    std::istringstream in(bytes);
    for (auto& e : check_layout(io::read_layout(in), nodes)) {
        errors.push_back(std::move(e));
    }
    return serve::fnv1a64(bytes) >> 16;
}

/// Stress must be finite and below that of the layout the engine starts
/// from.
void check_stress(double stress, double initial, std::vector<std::string>& errors) {
    if (!std::isfinite(stress)) errors.push_back("stress is not finite");
    if (!(stress < initial)) {
        errors.push_back("stress " + std::to_string(stress) +
                         " not below initial " + std::to_string(initial));
    }
}

double initial_stress(const graph::LeanGraph& g, const core::LayoutConfig& cfg) {
    Span span("check", "check.initial_stress");
    return metrics::sampled_path_stress(g, core::make_initial_layout(g, cfg)).value;
}

void describe_input(Record& rec, const graph::LeanIngest& ing,
                    std::uint64_t bytes) {
    rec.input["nodes"] = JsonValue(std::uint64_t{ing.graph.node_count()});
    rec.input["paths"] = JsonValue(std::uint64_t{ing.graph.path_count()});
    rec.input["steps"] = JsonValue(ing.graph.total_path_steps());
    rec.input["components"] = JsonValue(std::uint64_t{ing.component_count});
    rec.input["bytes_on_disk"] = JsonValue(bytes);
}

// --- library histograms the traced runs read ------------------------------------

telemetry::Histogram hist(const std::string& name) {
    return telemetry::Registry::instance().histogram(name);
}
double hist_sum_s(const std::string& name) {
    return static_cast<double>(hist(name).sum()) * 1e-9;
}
double counter(const std::string& name) {
    return static_cast<double>(
        telemetry::Registry::instance().counter(name).value());
}

/// Engine-layer readings every traced repetition reports. `run_s` is the
/// engine.run time of the repetition (summed over engines that ran in
/// parallel), `init_s` engine construction + init.
void sample_core(Record& rec, double run_s, double init_s,
                 std::uint64_t updates, std::uint64_t skipped,
                 double bytes_per_update) {
    rec.sample("core.run_s", run_s);
    rec.sample("core.init_s", init_s);
    rec.sample("core.updates_per_s", run_s > 0 ? updates / run_s : 0.0);
    rec.sample("core.iteration_s_p50", hist("engine.iteration_ns").quantile(0.5) * 1e-9);
    rec.sample("core.pool_barrier_wait_s", hist_sum_s("pool.barrier_wait_ns"));
    rec.sample("core.pool_dispatch_wait_s", hist_sum_s("pool.dispatch_wait_ns"));
    rec.sample("core.pool_dispatches", counter("pool.dispatches"));
    rec.sample("core.skip_ratio",
               updates ? static_cast<double>(skipped) / updates : 0.0);
    rec.count("core.updates", static_cast<double>(updates));
    rec.count("core.bytes_moved_computed", updates * bytes_per_update);
}

/// Bytes one cpu-soa update moves, computed from the store layout (not
/// measured): two 16-byte PathStepRecords read, and the x/y pair of two
/// segment endpoints read and written back (2 x 8 B x 2).
constexpr double kBytesPerUpdate = 2 * 16 + 2 * 8 * 2;

/// Runs `body` repeatedly until `seconds` have passed since `t0` and at
/// least `min_reps` repetitions are done.
void repeat(Clock::time_point t0, double seconds, int min_reps,
            const std::function<void(int)>& body) {
    for (int rep = 0; rep < min_reps || seconds_since(t0) < seconds; ++rep) {
        body(rep);
    }
}

// --- generators ------------------------------------------------------------------

std::uint64_t mixed_seed(std::uint64_t seed, std::uint64_t salt) {
    rng::SplitMix64 mix(seed ^ salt);
    return mix.next();
}

/// The genome is a fixed data set for every seed; the workload seed draws
/// the layout seed instead (see run_genome). From one generated genome to
/// the next the final stress varied by 30%, from one layout seed to the
/// next on one genome by under 1%.
int gen_genome(const Args& a) {
    auto specs = workloads::whole_genome_spec(a.u32("components"), a.num("scale"), 0x6E);
    for (auto& s : specs) s = workloads::with_finer_segmentation(s, a.u32("sub"));
    graph::write_gfa_file(workloads::generate_whole_genome(specs), a.str("out"));
    return 0;
}

/// The daemon's two graphs. They are the server's data set, fixed for every
/// seed; the workload seed draws the traffic instead (see job_mix).
int gen_serve(const Args& a) {
    const auto make = [&](std::uint64_t backbone, std::uint64_t seed,
                          const std::string& path) {
        auto spec = workloads::chromosome_spec(21, 0.001);
        spec.backbone_nodes = backbone;
        spec.n_paths = a.u32("paths");
        spec.seed = seed;
        graph::write_gfa_file(workloads::generate_pangenome(spec), path);
    };
    make(a.u64("backbone"), 0x5A, a.str("small"));
    make(4 * a.u64("backbone"), 0x1A, a.str("large"));
    return 0;
}

// --- genome_parts_ml -----------------------------------------------------------

/// The partitioned path of driver::run_layout, one span per layer call.
void traced_partition(const graph::LeanIngest& ing,
                      const partition::PartitionOptions& popt,
                      const std::string& out_path, Record& rec) {
    Span rep("bench", "rep");
    telemetry::Registry::instance().reset();
    partition::ComponentLabels labels;
    labels.count = ing.component_count;
    labels.node_component = ing.node_component;
    labels.path_component = ing.path_component;
    partition::Decomposition d;
    {
        Span s("partition", "partition.decompose");
        d = partition::decompose(ing.graph, std::move(labels));
        rec.sample("partition.decompose_s", s.close());
    }
    partition::PartitionResult r;
    {
        Span s("partition", "partition.partition_layout");
        r = partition::partition_layout(std::move(d), popt);
        s.close();
    }
    const double makespan = hist_sum_s("span.schedule");
    const double component_sum = hist_sum_s("span.component");
    rec.sample("partition.makespan_s", makespan);
    rec.sample("partition.component_s_max", hist("span.component").max() * 1e-9);
    rec.sample("partition.imbalance",
               component_sum > 0 ? makespan * popt.schedule.workers / component_sum : 0.0);
    rec.sample("partition.stitch_s", hist_sum_s("span.stitch"));
    rec.count("partition.components", r.decomposition.count());
    rec.sample("multilevel.coarsen_s", hist_sum_s("span.coarsen"));
    rec.sample("multilevel.coarse_layout_s", hist_sum_s("span.layout"));
    rec.sample("multilevel.interpolate_s", hist_sum_s("span.interpolate"));
    rec.sample("multilevel.refine_s", hist_sum_s("span.refine"));
    // Engine construction + init is not spanned inside a pass; it is the
    // part of the engine-running passes outside engine.run.
    const double engine_run = hist_sum_s("span.engine.run");
    const double engine_passes = hist_sum_s("span.layout") + hist_sum_s("span.refine");
    sample_core(rec, engine_run, std::max(0.0, engine_passes - engine_run),
                r.updates, r.skipped, kBytesPerUpdate);
    // The component workers run the engine passes (core) and the coarsen and
    // interpolate passes (multilevel) inside partition.partition_layout.
    const double workers = popt.schedule.workers;
    rec.nested("core", "partition", engine_passes / workers);
    rec.nested("multilevel", "partition",
               (hist_sum_s("span.coarsen") + hist_sum_s("span.interpolate")) / workers);
    {
        Span s("io", "io.write_layout_file");
        io::write_layout_file(r.stitched.layout, out_path);
        rec.sample("io.lay_write_s", s.close());
    }
    rec.sample("rep_traced_s", rep.close());

    // Coarse/fine node ratio of the one coarsening level the plan runs —
    // computed here, off every span, because the partition result does not
    // carry the per-component level sizes.
    double fine = 0, coarse = 0;
    for (const auto& c : r.decomposition.components) {
        fine += c.graph.node_count();
        coarse += multilevel::coarsen(c.graph).graph.node_count();
    }
    rec.count("multilevel.node_ratio", fine > 0 ? coarse / fine : 0.0);
}

int run_genome(const Args& a) {
    const bool trace = a.u32("trace") != 0;
    SpanLog::instance().enabled = trace;
    Record rec;
    Span root("bench", "run");
    const std::string gfa = a.str("graph");
    const std::string lay = a.str("dir") + "/genome_parts_ml.lay";
    const std::uint64_t bytes = std::filesystem::file_size(gfa);

    // setup_s is the median of three ingests per process.
    constexpr int kSetupReps = 3;
    std::shared_ptr<const graph::LeanIngest> ingest;
    for (int i = 0; i < kSetupReps; ++i) {
        Span s("graph", "graph.ingest_gfa_file");
        ingest = std::make_shared<const graph::LeanIngest>(graph::ingest_gfa_file(gfa));
        const double dt = s.close();
        if (trace) {
            rec.sample("graph.ingest_s", dt);
            rec.sample("graph.ingest_mb_per_s", bytes / 1048576.0 / dt);
        } else {
            rec.sample("setup_s", dt);
        }
    }
    describe_input(rec, *ingest, bytes);
    const graph::LeanGraph& g = ingest->graph;

    driver::RunRequest req;
    req.ingest = ingest;
    req.backend = "cpu-soa";
    req.config.threads = 1;
    // 53-bit, like every seed the daemon's JSON wire can carry.
    req.config.seed = mixed_seed(a.u64("seed"), 0x6E) >> 11;
    req.partition = true;
    req.multilevel = true;
    req.component_workers =
        std::max<std::uint32_t>(1, core::allowed_cpus_self().size());
    req.out_path = lay;
    partition::PartitionOptions popt;
    popt.schedule.backend = req.backend;
    popt.schedule.config = req.config;
    popt.schedule.workers = req.component_workers;
    popt.schedule.multilevel = true;
    popt.schedule.multilevel_opt = req.ml;

    std::vector<std::vector<std::string>> errors;
    core::Layout last;
    const auto t0 = Clock::now();
    repeat(t0, a.num("seconds"), a.u32("min-reps"), [&](int) {
        double wall;
        driver::RunOutcome out;
        {
            // The measured call; in a traced run, the overhead reference.
            Span s("reference", "reference.run_layout");
            out = driver::run_layout(req);
            wall = s.close();
        }
        std::vector<std::string> errs;
        const std::uint64_t digest = check_published(lay, g.node_count(), errs);
        rec.count("digest", static_cast<double>(digest));
        if (trace) {
            rec.sample("rep_untraced_s", wall);
            traced_partition(*ingest, popt, lay, rec);
            if (check_published(lay, g.node_count(), errs) != digest) {
                errs.push_back("traced digest differs from run_layout");
            }
        } else {
            // A job here is one run_layout call.
            rec.sample("layout_s", wall);
            rec.sample("job_latency_s", wall);
            rec.sample("jobs_done", 1.0);
            rec.sample("jobs_wall_s", wall);
            rec.count("core.updates", static_cast<double>(out.updates));
            rec.count("partition.components", out.partition.decomposition.count());
        }
        last = std::move(out.layout);
        errors.push_back(std::move(errs));
    });

    // Stress is off the clock here, and computed by one process of a run
    // (--quality 1): every repetition of every process publishes the same
    // digest (run.py checks), so one layout stands for all of them.
    if (a.u32("quality") != 0) {
        double stress;
        {
            Span s("metrics", "metrics.sampled_path_stress");
            const metrics::StressResult st = metrics::sampled_path_stress(g, last);
            stress = st.value;
            const double stress_s = s.close();
            if (trace) {
                rec.sample("metrics.stress_s", stress_s);
                rec.sample("metrics.stress_terms_per_s", st.terms / stress_s);
            }
        }
        rec.sample("stress", stress);
        const double initial = initial_stress(g, req.config);
        for (auto& errs : errors) check_stress(stress, initial, errs);
        rec.input["initial_stress"] = JsonValue(initial);
    }
    for (const auto& errs : errors) rec.unit("run_layout", errs);
    root.close();
    rec.print();
    return 0;
}

// --- serve_mixed -----------------------------------------------------------------

/// Job workers of the daemon under test.
constexpr std::uint32_t kServerWorkers = 2;

/// Sends one request line through the library's one-shot client, one
/// connection per request as pgl_serve does, and parses the reply.
JsonValue call(const std::string& socket, const std::string& line) {
    return serve::json_parse(serve::send_request(socket, line));
}

bool reply_ok(const JsonValue& reply) {
    const JsonValue* ok = reply.find("ok");
    return ok && ok->is_bool() && ok->as_bool();
}

/// An in-process daemon with kServerWorkers job workers on its own thread,
/// serving a fresh cache directory. The constructor returns once the daemon
/// answers ping; start_s() is that time.
class DaemonThread {
public:
    explicit DaemonThread(const std::string& dir) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        serve::DaemonOptions opt;
        opt.socket_path = dir + "/d.sock";
        opt.server.cache_dir = dir + "/cache";
        opt.server.workers = kServerWorkers;
        socket_ = opt.socket_path;
        Span s("serve", "serve.daemon_start");
        started_ = Clock::now();
        daemon_ = std::make_unique<serve::Daemon>(opt);
        thread_ = std::thread([this] {
            try {
                daemon_->run();
            } catch (const std::exception& e) {
                std::cerr << "daemon: " << e.what() << "\n";
            }
        });
        for (;;) {
            try {
                if (reply_ok(call(socket_, R"({"cmd":"ping"})"))) break;
            } catch (const std::exception&) {
                if (s.seconds() > 10) {
                    stop();
                    throw std::runtime_error("daemon did not answer ping");
                }
                std::this_thread::yield();
            }
        }
        start_s_ = s.close();
    }
    ~DaemonThread() { stop(); }
    DaemonThread(const DaemonThread&) = delete;
    DaemonThread& operator=(const DaemonThread&) = delete;

    const std::string& socket() const { return socket_; }
    double start_s() const { return start_s_; }
    double uptime_s() const { return seconds_since(started_); }

private:
    void stop() {
        Span s("serve", "serve.daemon_stop");
        try {
            call(socket_, R"({"cmd":"shutdown"})");
        } catch (const std::exception&) {
            daemon_->stop();
        }
        // The accept loop polls with a 200 ms timeout; one more connection
        // wakes it now, so it sees the stop flag without that wait. The
        // request fails when the loop has already closed the socket.
        try {
            serve::send_request(socket_, R"({"cmd":"ping"})");
        } catch (const std::exception&) {
        }
        thread_.join();
    }

    std::string socket_;
    Clock::time_point started_;
    double start_s_ = 0.0;
    std::unique_ptr<serve::Daemon> daemon_;
    std::thread thread_;
};

struct Job {
    serve::JobRequest request;
    bool hot = false;
};

struct JobOutcome {
    bool ok = false;
    bool cached = false;
    double latency_s = 0, queue_s = 0, run_s = 0;
    std::string artifact, error;
};

/// One job as a client runs it: submit, then result with wait. With
/// `parent` != 0 each request gets a span under that span.
JobOutcome serve_job(const std::string& socket, const serve::JobRequest& request,
                     std::uint64_t parent) {
    const auto timed = [&](const char* name, const std::string& line) {
        if (parent == 0) return call(socket, line);
        Span s("serve", name, parent);
        return call(socket, line);
    };
    JobOutcome j;
    JsonObject submit = serve::request_to_json(request).as_object();
    submit["cmd"] = JsonValue("submit");
    const auto t0 = Clock::now();
    const JsonValue sub = timed("serve.submit", JsonValue(std::move(submit)).dump());
    if (!reply_ok(sub)) {
        j.error = sub.dump();
        return j;
    }
    const JsonValue res =
        timed("serve.result_wait", R"({"cmd":"result","wait":true,"id":)" +
                                       std::to_string(sub.find("id")->as_uint()) + "}");
    j.latency_s = seconds_since(t0);
    const JsonValue* state = res.find("state");
    j.ok = reply_ok(res) && state && state->as_string() == "done";
    if (!j.ok) {
        j.error = res.dump();
        return j;
    }
    j.cached = res.find("cached")->as_bool();
    j.queue_s = res.find("queue_seconds")->as_double();
    j.run_s = res.find("run_seconds")->as_double();
    j.artifact = res.find("artifact")->as_string();
    return j;
}

/// setup_s on serve_mixed: a fresh daemon on a fresh cache directory, from
/// its start until it has answered ping and finished a first job on each of
/// its two graphs, which makes it parse them. The jobs run one iteration,
/// so graph loading and engine set-up dominate them, not layout.
double cold_start(const Args& a, const std::string& dir, bool trace, Record& rec) {
    Span s("serve", "serve.cold_start");
    DaemonThread d(dir);
    if (trace) rec.sample("serve.daemon_start_s", d.start_s());
    std::vector<std::string> errors;
    for (const char* graph : {"small", "large"}) {
        serve::JobRequest r;
        r.graph = a.str(graph);
        r.backend = "cpu-soa";
        r.config.threads = 1;
        r.config.iter_max = 1;
        r.config.seed = 1;  // the default seed exceeds the wire's 53 bits
        const JobOutcome j = serve_job(d.socket(), r, 0);
        if (!j.ok) errors.push_back("warm-up job failed: " + j.error);
    }
    const double ready_s = d.uptime_s();
    rec.unit("cold_start", errors);
    return ready_s;
}

/// The job mix of one round, drawn from the workload seed and the round:
/// 60% jobs on the small graph and 15% on the 4x larger one, each with its
/// own layout seed so it misses the cache, and 25% one hot request
/// repeated, which runs once and is then served from the cache or joined in
/// flight. Every round has the same shares, so the cache-hit share is fixed.
std::vector<Job> job_mix(const Args& a, std::uint64_t round) {
    const std::uint32_t n = a.u32("jobs");
    const std::uint32_t n_large = n * 15 / 100;
    const std::uint32_t n_hot = n / 4;
    // 53-bit layout seeds survive the wire's JSON doubles exactly.
    const std::uint64_t hot_seed = mixed_seed(a.u64("seed"), 0) >> 11;
    rng::SplitMix64 mix(mixed_seed(a.u64("seed"), round + 1));
    std::vector<Job> jobs(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        Job& j = jobs[i];
        j.hot = i < n_hot;
        j.request.graph = a.str(i >= n_hot && i < n_hot + n_large ? "large" : "small");
        j.request.backend = "cpu-soa";
        j.request.config.threads = 1;
        j.request.config.iter_max = a.u32("iters");
        j.request.config.seed = j.hot ? hot_seed : mix.next() >> 11;
    }
    for (std::size_t i = jobs.size(); i > 1; --i) {
        std::swap(jobs[i - 1], jobs[mix.next() % i]);
    }
    return jobs;
}

/// Four closed-loop clients drain the job list: each sends submit, then
/// result with wait, and only then takes its next job. `spans` records one
/// span per request under the caller's current span.
std::vector<JobOutcome> run_round(const std::string& socket,
                                  const std::vector<Job>& mix, bool spans) {
    std::vector<JobOutcome> out(mix.size());
    std::atomic<std::size_t> next{0};
    const std::uint64_t parent = spans ? t_current_span : 0;
    std::mutex err_mu;
    std::string client_error;
    const auto client = [&] {
        try {
            for (std::size_t i; (i = next.fetch_add(1)) < mix.size();) {
                out[i] = serve_job(socket, mix[i].request, parent);
            }
        } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(err_mu);
            client_error = e.what();
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) clients.emplace_back(client);
    for (auto& t : clients) t.join();
    if (!client_error.empty()) throw std::runtime_error("client: " + client_error);
    return out;
}

int run_serve(const Args& a) {
    const bool trace = a.u32("trace") != 0;
    SpanLog::instance().enabled = trace;
    Record rec;
    Span root("bench", "run");
    const std::string dir = a.str("dir");

    {
        Span s("graph", "graph.ingest_gfa_file");
        const graph::LeanIngest small = graph::ingest_gfa_file(a.str("small"));
        const graph::LeanIngest large = graph::ingest_gfa_file(a.str("large"));
        describe_input(rec, small, std::filesystem::file_size(a.str("small")) +
                                       std::filesystem::file_size(a.str("large")));
        rec.input["large_nodes"] = JsonValue(std::uint64_t{large.graph.node_count()});
        rec.input["large_steps"] = JsonValue(large.graph.total_path_steps());
        rec.input["jobs_per_round"] = JsonValue(std::uint64_t{a.u32("jobs")});
    }
    // setup_s is the median of many cold starts per run.
    constexpr int kColdStarts = 27;
    for (int i = 0; i < kColdStarts; ++i) {
        const double ready_s = cold_start(a, dir + "/setup", trace, rec);
        if (!trace) rec.sample("setup_s", ready_s);
    }

    // Every distinct artifact of the first kCheckedRounds measured rounds,
    // checked off the clock: (request, artifact bytes).
    constexpr int kCheckedRounds = 3;
    std::vector<std::pair<serve::JobRequest, std::string>> served;
    int checked_rounds = 0;
    // Plays one round of `mix` on a fresh daemon and returns its wall time.
    // Every job is checked; only a measured round feeds the metrics and the
    // artifact checks (a traced run's reference round does not).
    const auto play = [&](const std::vector<Job>& mix, bool measured) {
        DaemonThread d(dir + "/round");
        telemetry::Registry::instance().reset();
        std::vector<JobOutcome> jobs;
        double wall;
        {
            Span s("bench", "round");
            jobs = run_round(d.socket(), mix, trace && measured);
            wall = s.close();
        }
        const bool collect = measured && checked_rounds < kCheckedRounds;
        checked_rounds += collect;
        std::size_t done = 0, cached = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobOutcome& j = jobs[i];
            rec.unit("job", j.ok ? std::vector<std::string>{}
                                 : std::vector<std::string>{"job failed: " + j.error});
            if (!j.ok) continue;
            ++done;
            cached += j.cached;
            if (!measured) continue;
            if (!trace) rec.sample("job_latency_s", j.latency_s);
            if (j.cached) continue;
            if (trace) {
                rec.sample("serve.queue_wait_s", j.queue_s);
                rec.sample("serve.run_s", j.run_s);
                rec.sample("serve.wire_s", j.latency_s - j.queue_s - j.run_s);
            } else {
                rec.sample("layout_s", j.run_s);
            }
            if (collect) served.emplace_back(mix[i].request, read_file(j.artifact));
        }
        rec.count("serve.cache_hit_ratio",
                  static_cast<double>(cached) / static_cast<double>(jobs.size()));
        if (measured && !trace) {
            rec.sample("jobs_done", static_cast<double>(done));
            rec.sample("jobs_wall_s", wall);
        }
        if (measured && trace) {
            // The driver's "layout" stage is engine init + run of a flat
            // job; init is the part outside engine.run.
            const double engine_run = hist_sum_s("span.engine.run");
            const double engine_stage = hist_sum_s("span.layout");
            sample_core(rec, engine_run, std::max(0.0, engine_stage - engine_run),
                        static_cast<std::uint64_t>(counter("engine.updates")),
                        static_cast<std::uint64_t>(counter("engine.skipped")),
                        kBytesPerUpdate);
            const double publish = hist_sum_s("span.job.publish");
            rec.sample("io.lay_write_s", publish);
            rec.sample("serve.dedup_joins", counter("serve.dedup_joins"));
            // The daemon's workers run engines (core) and artifact writes
            // (io) while the clients' request spans wait.
            rec.nested("core", "serve", engine_stage / kServerWorkers);
            rec.nested("io", "serve", publish / kServerWorkers);
        }
        return wall;
    };
    const auto t0 = Clock::now();
    repeat(t0, a.num("seconds"), 1, [&](int round) {
        const std::vector<Job> mix = job_mix(a, static_cast<std::uint64_t>(round));
        if (trace) {
            Span ref("reference", "reference.round");
            rec.sample("rep_untraced_s", play(mix, false));
        }
        const double wall = play(mix, true);
        if (trace) rec.sample("rep_traced_s", wall);
    });

    // Off the clock: every collected artifact is a valid, improved layout
    // of its graph (their median stress is the workload's quality figure),
    // and the hot request's artifact is byte-equal to a direct run_layout
    // of the same request.
    const std::vector<Job> first_mix = job_mix(a, 0);
    const auto hot = std::find_if(first_mix.begin(), first_mix.end(),
                                  [](const Job& j) { return j.hot; });
    std::map<std::string, std::pair<graph::LeanIngest, double>> graphs;
    for (const auto& [request, bytes] : served) {
        auto it = graphs.find(request.graph);
        if (it == graphs.end()) {
            graph::LeanIngest ing = graph::ingest_gfa_file(request.graph);
            const double initial = initial_stress(ing.graph, hot->request.config);
            it = graphs.emplace(request.graph, std::make_pair(std::move(ing), initial)).first;
        }
        const graph::LeanGraph& g = it->second.first.graph;
        std::istringstream in(bytes);
        const core::Layout layout = io::read_layout(in);
        std::vector<std::string> errs = check_layout(layout, g.node_count());
        Span m("metrics", "metrics.sampled_path_stress");
        const metrics::StressResult st = metrics::sampled_path_stress(g, layout);
        const double stress_s = m.close();
        if (trace) {
            rec.sample("metrics.stress_s", stress_s);
            rec.sample("metrics.stress_terms_per_s", st.terms / stress_s);
        }
        rec.sample("stress", st.value);
        check_stress(st.value, it->second.second, errs);
        rec.unit("served_artifact", errs);
    }
    std::vector<std::string> errs;
    const auto probe = std::find_if(served.begin(), served.end(), [&](const auto& s) {
        return s.first.config.seed == hot->request.config.seed &&
               s.first.graph == hot->request.graph;
    });
    if (probe == served.end()) {
        errs.push_back("the hot request was not served");
    } else {
        Span c("check", "check.served_vs_direct");
        driver::RunRequest req;
        req.graph_path = probe->first.graph;
        req.backend = probe->first.backend;
        req.config = probe->first.config;
        req.out_path = dir + "/direct.lay";
        driver::run_layout(req);
        if (read_file(req.out_path) != probe->second) {
            errs.push_back("served artifact differs from a direct run_layout");
        }
    }
    rec.unit("served_vs_direct", errs);
    root.close();
    rec.print();
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::cerr << "usage: pglbench gen-genome|gen-serve|run-genome|run-serve "
                     "--key value ...\n";
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args a(argc, argv);
        if (cmd == "gen-genome") return gen_genome(a);
        if (cmd == "gen-serve") return gen_serve(a);
        if (cmd == "run-genome") return run_genome(a);
        if (cmd == "run-serve") return run_serve(a);
        std::cerr << "unknown command " << cmd << "\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "pglbench " << cmd << ": " << e.what() << "\n";
        return 1;
    }
}
