// pgl-layout — the command-line layout tool, mirroring `odgi layout` with
// the paper's promised `--gpu` switch (Sec. VII-B: "a user can simply add
// the --gpu argument"). main() is flag parsing plus one driver::run_layout
// call: every execution mode — flat, multilevel, partitioned and
// graph-cache conversion — runs the same driver pipeline the serve daemon
// uses.
//
//   pgl-layout -i graph.gfa|graph.pgg -o graph.lay
//              [--backend NAME | --gpu[=a6000|a100]] [--kernel NAME]
//              [--iters N] [--factor F] [--threads N] [--seed N]
//              [--save-graph FILE.pgg] [--load-graph FILE.pgg]
//              [--partition] [--component-workers N]
//              [--per-component-out DIR]
//              [--multilevel[=LEVELS]] [--refine-iters N] [--exact-tail]
//              [--svg out.svg] [--ppm out.ppm] [--stress]
//              [--progress] [--timing] [--trace out.json]
//              [--list-backends] [--list-kernels]
//
// Ingestion streams GFA 1.0/1.1 (S/L/P/W records, CRLF tolerant) through
// the one GFA reader straight into the engine-ready LeanGraph, with
// component labels over edge + path connectivity — or loads a binary .pgg
// graph cache (auto-detected by extension, or forced with --load-graph).
// --save-graph writes the cache after ingestion so repeated runs of the
// same pangenome skip GFA parsing; with --save-graph and no -o the tool
// converts and exits. With
// --partition the graph is decomposed into connected components, each
// component is laid out by its own engine instance — spread across
// --component-workers threads — and the results are shelf-packed onto one
// canvas (see README "Execution drivers" for the determinism contract).
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "cli_common.hpp"
#include "core/engine.hpp"
#include "core/kernels/update_kernel.hpp"
#include "driver/driver.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "telemetry/telemetry.hpp"

namespace {

void usage(const char* argv0) {
    std::cerr
        << "usage: " << argv0 << " -i graph.gfa|graph.pgg -o layout.lay [options]\n"
        << "  --backend NAME      run a registered engine (see --list-backends)\n"
        << "  --kernel NAME       update kernel for batch-applying engines\n"
        << "                      (see --list-kernels; default scalar)\n"
        << "  --gpu[=a6000|a100]  alias for the optimized simulated GPU\n"
        << "  --iters N           SGD iterations (default 30)\n"
        << "  --factor F          updates per iteration = F x total steps (default 10)\n"
        << "  --threads N         CPU engine workers (default 1)\n"
        << "  --seed N            PRNG seed\n"
        << "  --save-graph FILE   write the parsed graph as a binary .pgg cache\n"
        << "                      (with no -o: convert and exit)\n"
        << "  --load-graph FILE   load a .pgg cache instead of -i\n"
        << "  --partition         decompose into connected components, lay out\n"
        << "                      each with its own engine, stitch one canvas\n"
        << "  --component-workers N  components laid out concurrently (default 1)\n"
        << "  --per-component-out DIR  also dump component_<k>.lay per component\n"
        << "  --multilevel[=LEVELS]  coarsen linear runs LEVELS times (default 1),\n"
        << "                      anneal the coarse graph, interpolate, refine\n"
        << "                      (composes with --partition: per component)\n"
        << "  --refine-iters N    full-resolution refinement iterations\n"
        << "                      (default max(2, iters / 2))\n"
        << "  --exact-tail        refine with the flat schedule's own tail\n"
        << "                      temperatures instead of the adaptive\n"
        << "                      run-length restart (bit-exact tail replay)\n"
        << "  --svg FILE          also render an SVG\n"
        << "  --ppm FILE          also render a PPM bitmap\n"
        << "  --stress            report sampled path stress with CI95\n"
        << "  --progress          print per-iteration (or, with --partition,\n"
        << "                      per-component) progress to stderr\n"
        << "  --timing            print a per-stage wall-clock summary to stderr\n"
        << "  --trace FILE        write a Chrome trace-event JSON of the run\n"
        << "                      (load in chrome://tracing or Perfetto)\n"
        << "  --list-backends     list registered engines and exit\n"
        << "  --list-kernels      list registered update kernels and exit\n";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace pgl;
    driver::RunRequest req;
    req.backend.clear();  // resolved to cpu-soa after the alias flags
    std::string in_path, gpu_name, load_graph_path, trace_path;
    bool report_stress = false, progress = false, timing = false;

    // CI's smoke loops consume the `--list-backends` / `--list-kernels`
    // output verbatim (`for x in $(pgl_layout --list-...)`), so the contract
    // is strict: exit 0, one registered name per line on stdout, nothing
    // else. Handle them before any other parsing so no other flag can
    // corrupt the listing.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--list-backends") {
            for (const auto& n : core::EngineRegistry::instance().names()) {
                std::cout << n << "\n";
            }
            return 0;
        }
        if (std::string(argv[i]) == "--list-kernels") {
            for (const auto& n : core::KernelRegistry::instance().names()) {
                std::cout << n << "\n";
            }
            return 0;
        }
    }

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return cli::next_arg_or_die(argc, argv, i, arg,
                                        [&] { usage(argv[0]); });
        };
        if (arg == "-i") {
            in_path = next();
        } else if (arg == "-o") {
            req.out_path = next();
        } else if (arg == "--backend") {
            req.backend = next();
            gpu_name.clear();  // last flag wins over an earlier --gpu=NAME
        } else if (arg == "--gpu") {
            req.backend = "gpusim-optimized";
            gpu_name.clear();
        } else if (arg.rfind("--gpu=", 0) == 0) {
            req.backend = "gpusim-optimized";
            gpu_name = arg.substr(6);
            if (gpu_name != "a6000" && gpu_name != "a100") {
                std::cerr << "unknown GPU \"" << gpu_name
                          << "\" (expected a6000 or a100)\n";
                return 2;
            }
        } else if (arg == "--kernel") {
            req.config.kernel = next();
        } else if (arg == "--iters") {
            req.config.iter_max = cli::parse_int_or_die<std::uint32_t>(arg, next());
        } else if (arg == "--factor") {
            req.config.steps_per_iter_factor = cli::parse_double_or_die(arg, next());
        } else if (arg == "--threads") {
            req.config.threads = cli::parse_int_or_die<std::uint32_t>(arg, next());
        } else if (arg == "--seed") {
            req.config.seed = cli::parse_int_or_die<std::uint64_t>(arg, next());
        } else if (arg == "--save-graph") {
            req.save_graph_path = next();
        } else if (arg == "--load-graph") {
            load_graph_path = next();
        } else if (arg == "--partition") {
            req.partition = true;
        } else if (arg == "--component-workers") {
            req.component_workers = cli::parse_int_or_die<std::uint32_t>(arg, next());
        } else if (arg == "--per-component-out") {
            req.per_component_dir = next();
        } else if (arg == "--multilevel") {
            req.multilevel = true;
        } else if (arg.rfind("--multilevel=", 0) == 0) {
            req.multilevel = true;
            req.ml.levels = cli::parse_int_or_die<std::uint32_t>(
                "--multilevel", arg.c_str() + std::strlen("--multilevel="));
            if (req.ml.levels == 0) {
                std::cerr << "--multilevel=LEVELS requires LEVELS >= 1\n";
                return 2;
            }
        } else if (arg == "--refine-iters") {
            req.ml.refine_iters = cli::parse_int_or_die<std::uint32_t>(arg, next());
        } else if (arg == "--exact-tail") {
            req.ml.exact_tail = true;
        } else if (arg == "--svg") {
            req.svg_path = next();
        } else if (arg == "--ppm") {
            req.ppm_path = next();
        } else if (arg == "--stress") {
            report_stress = true;
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--timing") {
            timing = true;
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "-h" || arg == "--help") {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage(argv[0]);
            return 2;
        }
    }
    if (!load_graph_path.empty()) {
        if (!in_path.empty()) {
            std::cerr << "-i and --load-graph are mutually exclusive\n";
            return 2;
        }
        in_path = load_graph_path;
        req.force_pgg = true;
    }
    req.graph_path = in_path;
    const bool convert_only = !req.save_graph_path.empty() && req.out_path.empty();
    if (req.graph_path.empty() || (req.out_path.empty() && !convert_only)) {
        std::cerr << "both -i (or --load-graph) and -o are required\n";
        usage(argv[0]);
        return 2;
    }
    if (!req.per_component_dir.empty() && !req.partition) {
        std::cerr << "--per-component-out requires --partition\n";
        return 2;
    }
    if (req.component_workers != 1 && !req.partition) {
        std::cerr << "--component-workers requires --partition\n";
        return 2;
    }
    if (req.ml.refine_iters != 0 && !req.multilevel) {
        std::cerr << "--refine-iters requires --multilevel\n";
        return 2;
    }
    if (req.ml.exact_tail && !req.multilevel) {
        std::cerr << "--exact-tail requires --multilevel\n";
        return 2;
    }
    if (req.backend.empty()) req.backend = "cpu-soa";
    if (!core::KernelRegistry::instance().contains(req.config.kernel)) {
        std::cerr << "unknown update kernel \"" << req.config.kernel
                  << "\"; available:";
        for (const auto& n : core::KernelRegistry::instance().names()) {
            std::cerr << " " << n;
        }
        std::cerr << "\n";
        return 2;
    }
    if (req.partition && gpu_name == "a100") {
        // The a100 variant is constructed with a non-default machine spec,
        // not through the registry the scheduler draws engines from.
        std::cerr << "--gpu=a100 is not supported with --partition "
                     "(use --gpu or --backend gpusim-optimized)\n";
        return 2;
    }
    if (gpu_name == "a100") {
        req.engine_factory = [] {
            return gpusim::make_gpusim_engine(gpusim::KernelConfig::optimized(),
                                              gpusim::a100());
        };
    }
    req.log = [](const std::string& line) { std::cerr << line << "\n"; };
    req.compute_stress = report_stress;
    if (progress) {
        req.iteration_progress = [](const core::IterationStats& s) {
            std::cerr << "iter " << (s.iteration + 1) << "/" << s.iter_max
                      << "  eta " << s.eta << "  updates " << s.updates
                      << "  skipped " << s.skipped << "\n";
        };
        req.component_progress = [](const partition::ComponentProgress& p) {
            std::cerr << "component " << p.completed << "/" << p.total
                      << " (id " << p.component << "): " << p.nodes
                      << " nodes, " << p.updates << " updates, " << p.seconds
                      << " s\n";
        };
    }

    // --trace captures every stage span of this run; enable before any work
    // so nothing is missed.
    if (!trace_path.empty()) telemetry::Tracer::instance().set_enabled(true);

    const auto t_start = std::chrono::steady_clock::now();
    try {
        const driver::RunOutcome outcome = driver::run_layout(req);
        if (outcome.convert_only) return 0;

        if (outcome.stress_computed) {
            std::cout << "sampled path stress: " << outcome.stress.value
                      << " [" << outcome.stress.ci_low << ", "
                      << outcome.stress.ci_high << "] over "
                      << outcome.stress.terms << " terms\n";
        }
        if (timing) {
#ifndef PGL_TELEMETRY_DISABLED
            // One stage per line, machine-parseable ("timing: <stage> <s> s"),
            // all read from the telemetry span histograms so every run mode —
            // flat, --partition, --multilevel, or combinations — reports
            // through the same path. Stage sums aggregate across components,
            // so they can exceed wall-clock with concurrency > 1. A stage
            // that never opened a span did not run and prints no line.
            auto& reg = telemetry::Registry::instance();
            for (const char* stage :
                 {"parse", "coarsen", "layout", "interpolate", "refine",
                  "stitch", "metrics", "render"}) {
                const auto h = reg.histogram(std::string("span.") + stage);
                if (h.count() == 0) continue;
                std::cerr << "timing: " << stage << " "
                          << static_cast<double>(h.sum()) / 1e9 << " s\n";
            }
#else
            std::cerr << "timing: stage spans compiled out (PGL_TELEMETRY=OFF)\n";
#endif
            std::cerr << "timing: total " << seconds_since(t_start) << " s\n";
        }
        if (!trace_path.empty()) {
            if (telemetry::write_chrome_trace(trace_path)) {
                std::cerr << "wrote trace " << trace_path << "\n";
            } else {
                std::cerr << "error: failed to write trace " << trace_path
                          << "\n";
                return 1;
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
