#pragma once
// Shared command-line helpers for the pgl tools (pgl_layout, pgl_serve).
// Checked numeric option parsing lived as near-identical copies in both
// tools; this header is the single definition, used for every numeric flag.
//
// std::atoi silently turned garbage and out-of-range values into 0 and the
// run "succeeded" with a nonsense config; std::from_chars lets us reject
// both with a clear diagnostic naming the flag. from_chars also accepts
// "nan" and "inf", which no numeric flag means, so the double parser
// rejects non-finite values too. All helpers exit(2) — the
// tools' usage-error status — on bad input, so call them only from
// command-line parsing, never from library code.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <system_error>

namespace pgl::cli {

template <typename T>
T parse_int_or_die(const std::string& flag, const char* text) {
    T value{};
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc::result_out_of_range) {
        std::cerr << "value for " << flag << " is out of range: '" << text
                  << "'\n";
        std::exit(2);
    }
    if (ec != std::errc() || ptr != end) {
        std::cerr << "invalid value for " << flag << ": '" << text
                  << "' (expected a non-negative integer)\n";
        std::exit(2);
    }
    return value;
}

inline double parse_double_or_die(const std::string& flag, const char* text) {
    double value = 0.0;
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc::result_out_of_range) {
        std::cerr << "value for " << flag << " is out of range: '" << text
                  << "'\n";
        std::exit(2);
    }
    if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
        std::cerr << "invalid value for " << flag << ": '" << text
                  << "' (expected a finite number)\n";
        std::exit(2);
    }
    return value;
}

/// Returns argv[++i] or dies with the tools' shared "requires an argument"
/// diagnostic (optionally printing a usage screen first via `usage`).
template <typename UsageFn>
const char* next_arg_or_die(int argc, char** argv, int& i,
                            const std::string& arg, UsageFn&& usage) {
    if (i + 1 >= argc) {
        std::cerr << "option " << arg << " requires an argument\n";
        usage();
        std::exit(2);
    }
    return argv[++i];
}

}  // namespace pgl::cli
