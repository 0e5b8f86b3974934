// pgl-serve — the layout service daemon and its thin client. One long-lived
// process owns a worker pool and an on-disk artifact cache; clients submit
// layout jobs (graph + full layout config) over a unix socket speaking
// line-delimited JSON and fetch finished .lay artifacts. Results are
// byte-identical to a direct `pgl_layout` run for deterministic backends,
// and repeated submits of the same (graph, config) are served from the
// cache without running an engine.
//
//   pgl-serve serve    --socket S [--cache-dir D] [--workers N]
//                      [--graph-cache N]
//   pgl-serve submit   --socket S --graph FILE [config flags]
//                      [--wait] [-o OUT.lay]
//   pgl-serve status   --socket S --id N
//   pgl-serve cancel   --socket S --id N
//   pgl-serve stats    --socket S
//   pgl-serve ping     --socket S
//   pgl-serve shutdown --socket S
//   pgl-serve request  --socket S JSON      (raw protocol escape hatch)
//
// `submit` accepts the same layout vocabulary as pgl_layout: --backend,
// --iters, --factor, --threads, --seed, --partition, --component-workers,
// --multilevel[=LEVELS], --refine-iters, --exact-tail.
// With --wait it blocks until the job is terminal, copies the artifact to
// -o if given, prints the final response JSON on stdout, and exits 0 only
// for state "done".
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "cli_common.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "telemetry/telemetry.hpp"

namespace {

pgl::serve::Daemon* g_daemon = nullptr;

void on_signal(int) {
    if (g_daemon) g_daemon->stop();
}

void usage(const char* argv0) {
    std::cerr
        << "usage: " << argv0 << " COMMAND [options]\n"
        << "commands:\n"
        << "  serve     run the daemon\n"
        << "    --socket PATH       unix socket to listen on (required)\n"
        << "    --cache-dir DIR     artifact cache directory (default .pgl-cache)\n"
        << "    --workers N         concurrent layout jobs (default 2)\n"
        << "    --graph-cache N     parsed graphs kept in memory (default 4)\n"
        << "    --trace FILE        write a Chrome trace of the daemon's\n"
        << "                        lifetime (job spans + queue waits) on exit\n"
        << "  submit    submit a layout job\n"
        << "    --socket PATH --graph FILE [--backend NAME]\n"
        << "    [--iters N] [--factor F] [--threads N] [--seed N]\n"
        << "    [--partition] [--component-workers N]\n"
        << "    [--multilevel[=LEVELS]] [--refine-iters N] [--exact-tail]\n"
        << "    [--wait] [-o OUT.lay]\n"
        << "  status    --socket PATH --id N\n"
        << "  cancel    --socket PATH --id N\n"
        << "  stats     --socket PATH\n"
        << "  metrics   --socket PATH        full telemetry snapshot\n"
        << "  ping      --socket PATH\n"
        << "  shutdown  --socket PATH\n"
        << "  request   --socket PATH JSON   send one raw protocol line\n";
}

// Checked numeric parsing is shared with pgl_layout (tools/cli_common.hpp).
using pgl::cli::parse_double_or_die;
using pgl::cli::parse_int_or_die;

/// Sends one line and prints the response; returns 0 iff "ok": true.
int roundtrip(const std::string& socket_path, const std::string& line) {
    const std::string response = pgl::serve::send_request(socket_path, line);
    std::cout << response << "\n";
    const pgl::serve::JsonValue v = pgl::serve::json_parse(response);
    const pgl::serve::JsonValue* ok = v.find("ok");
    return ok && ok->as_bool() ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
    pgl::serve::DaemonOptions opt;
    opt.socket_path.clear();
    std::string trace_path;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return pgl::cli::next_arg_or_die(argc, argv, i, arg, [] {});
        };
        if (arg == "--socket") {
            opt.socket_path = next();
        } else if (arg == "--cache-dir") {
            opt.server.cache_dir = next();
        } else if (arg == "--workers") {
            opt.server.workers = parse_int_or_die<std::uint32_t>(arg, next());
        } else if (arg == "--graph-cache") {
            opt.server.graph_cache_entries =
                parse_int_or_die<std::uint32_t>(arg, next());
        } else if (arg == "--trace") {
            trace_path = next();
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return 2;
        }
    }
    if (opt.socket_path.empty()) {
        std::cerr << "serve requires --socket PATH\n";
        return 2;
    }
    if (!trace_path.empty()) {
        pgl::telemetry::Tracer::instance().set_enabled(true);
    }
    pgl::serve::Daemon daemon(std::move(opt));
    g_daemon = &daemon;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::cerr << "pgl-serve: listening\n";
    daemon.run();
    g_daemon = nullptr;
    std::cerr << "pgl-serve: stopped\n";
    if (!trace_path.empty()) {
        if (pgl::telemetry::write_chrome_trace(trace_path)) {
            std::cerr << "wrote trace " << trace_path << "\n";
        } else {
            std::cerr << "error: failed to write trace " << trace_path << "\n";
            return 1;
        }
    }
    return 0;
}

int cmd_submit(int argc, char** argv) {
    using pgl::serve::JsonObject;
    using pgl::serve::JsonValue;
    std::string socket_path, graph, out_path;
    bool wait = false;
    JsonObject config;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return pgl::cli::next_arg_or_die(argc, argv, i, arg, [] {});
        };
        if (arg == "--socket") {
            socket_path = next();
        } else if (arg == "--graph") {
            graph = next();
        } else if (arg == "-o") {
            out_path = next();
        } else if (arg == "--wait") {
            wait = true;
        } else if (arg == "--backend") {
            config["backend"] = JsonValue(std::string(next()));
        } else if (arg == "--iters") {
            config["iters"] =
                JsonValue(parse_int_or_die<std::uint64_t>(arg, next()));
        } else if (arg == "--factor") {
            config["factor"] = JsonValue(parse_double_or_die(arg, next()));
        } else if (arg == "--threads") {
            config["threads"] =
                JsonValue(parse_int_or_die<std::uint64_t>(arg, next()));
        } else if (arg == "--seed") {
            config["seed"] =
                JsonValue(parse_int_or_die<std::uint64_t>(arg, next()));
        } else if (arg == "--partition") {
            config["partition"] = JsonValue(true);
        } else if (arg == "--component-workers") {
            config["component_workers"] =
                JsonValue(parse_int_or_die<std::uint64_t>(arg, next()));
        } else if (arg == "--multilevel") {
            config["multilevel"] = JsonValue(std::uint64_t{1});
        } else if (arg.rfind("--multilevel=", 0) == 0) {
            config["multilevel"] = JsonValue(parse_int_or_die<std::uint64_t>(
                "--multilevel", arg.c_str() + std::strlen("--multilevel=")));
        } else if (arg == "--refine-iters") {
            config["refine_iters"] =
                JsonValue(parse_int_or_die<std::uint64_t>(arg, next()));
        } else if (arg == "--exact-tail") {
            config["exact_tail"] = JsonValue(true);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return 2;
        }
    }
    if (socket_path.empty() || graph.empty()) {
        std::cerr << "submit requires --socket PATH and --graph FILE\n";
        return 2;
    }

    JsonObject req;
    req["cmd"] = JsonValue(std::string("submit"));
    req["graph"] = JsonValue(graph);
    req["config"] = JsonValue(std::move(config));
    std::string response =
        pgl::serve::send_request(socket_path, JsonValue(std::move(req)).dump());
    JsonValue v = pgl::serve::json_parse(response);
    const JsonValue* ok = v.find("ok");
    if (!ok || !ok->as_bool()) {
        std::cout << response << "\n";
        return 1;
    }

    if (wait) {
        JsonObject wreq;
        wreq["cmd"] = JsonValue(std::string("result"));
        wreq["id"] = JsonValue(v.find("id")->as_uint());
        wreq["wait"] = JsonValue(true);
        response = pgl::serve::send_request(socket_path,
                                            JsonValue(std::move(wreq)).dump());
        v = pgl::serve::json_parse(response);
    }
    std::cout << response << "\n";

    const JsonValue* state = v.find("state");
    if (wait && (!state || state->as_string() != "done")) return 1;
    if (!out_path.empty()) {
        const JsonValue* artifact = v.find("artifact");
        if (!artifact) {
            std::cerr << "no artifact in response (did you forget --wait?)\n";
            return 1;
        }
        std::filesystem::copy_file(
            artifact->as_string(), out_path,
            std::filesystem::copy_options::overwrite_existing);
        std::cerr << "copied " << artifact->as_string() << " -> " << out_path
                  << "\n";
    }
    return 0;
}

/// Shared driver for the fixed-shape commands (status/cancel need --id;
/// ping/stats/shutdown do not).
int cmd_simple(int argc, char** argv, const char* cmd, bool needs_id) {
    std::string socket_path;
    std::uint64_t id = 0;
    bool have_id = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return pgl::cli::next_arg_or_die(argc, argv, i, arg, [] {});
        };
        if (arg == "--socket") {
            socket_path = next();
        } else if (arg == "--id") {
            id = parse_int_or_die<std::uint64_t>(arg, next());
            have_id = true;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return 2;
        }
    }
    if (socket_path.empty() || (needs_id && !have_id)) {
        std::cerr << cmd << " requires --socket PATH"
                  << (needs_id ? " and --id N" : "") << "\n";
        return 2;
    }
    pgl::serve::JsonObject req;
    req["cmd"] = pgl::serve::JsonValue(std::string(cmd));
    if (needs_id) req["id"] = pgl::serve::JsonValue(id);
    return roundtrip(socket_path, pgl::serve::JsonValue(std::move(req)).dump());
}

int cmd_request(int argc, char** argv) {
    std::string socket_path, line;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket") {
            if (i + 1 >= argc) {
                std::cerr << "option --socket requires an argument\n";
                return 2;
            }
            socket_path = argv[++i];
        } else if (line.empty()) {
            line = arg;
        } else {
            std::cerr << "request takes exactly one JSON line\n";
            return 2;
        }
    }
    if (socket_path.empty() || line.empty()) {
        std::cerr << "request requires --socket PATH and a JSON line\n";
        return 2;
    }
    return roundtrip(socket_path, line);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "serve") return cmd_serve(argc, argv);
        if (cmd == "submit") return cmd_submit(argc, argv);
        if (cmd == "status") return cmd_simple(argc, argv, "status", true);
        if (cmd == "cancel") return cmd_simple(argc, argv, "cancel", true);
        if (cmd == "stats") return cmd_simple(argc, argv, "stats", false);
        if (cmd == "metrics") return cmd_simple(argc, argv, "metrics", false);
        if (cmd == "ping") return cmd_simple(argc, argv, "ping", false);
        if (cmd == "shutdown") return cmd_simple(argc, argv, "shutdown", false);
        if (cmd == "request") return cmd_request(argc, argv);
        if (cmd == "-h" || cmd == "--help") {
            usage(argv[0]);
            return 0;
        }
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "unknown command: " << cmd << "\n";
    usage(argv[0]);
    return 2;
}
