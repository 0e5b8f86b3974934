// Tests for the host-CPU layer: the allowed cpuset the driver sizes its
// pools against, and the `--threads` clamp that keeps a run from
// oversubscribing it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/topology.hpp"
#include "driver/driver.hpp"
#include "graph/gfa_stream.hpp"

namespace {

using namespace pgl;

TEST(AllowedCpus, NonEmptyAndSorted) {
    const std::vector<std::uint32_t> cpus = core::allowed_cpus_self();
    ASSERT_FALSE(cpus.empty());
    EXPECT_TRUE(std::is_sorted(cpus.begin(), cpus.end()));
    EXPECT_EQ(std::adjacent_find(cpus.begin(), cpus.end()), cpus.end());
}

#if defined(__linux__)
TEST(AllowedCpus, MatchesTheAffinityMask) {
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
    const std::vector<std::uint32_t> cpus = core::allowed_cpus_self();
    EXPECT_EQ(cpus.size(), static_cast<std::size_t>(CPU_COUNT(&set)));
    for (const std::uint32_t c : cpus) EXPECT_TRUE(CPU_ISSET(c, &set)) << c;
}
#endif

TEST(ThreadsClamp, OversubscribedRunEqualsTheAllowedCpuRun) {
    std::stringstream gfa(
        "S\ts1\tACGT\nS\ts2\tTT\nS\ts3\tG\nS\ts4\tACACAC\n"
        "P\tp1\ts1+,s2-,s3+,s4+\t*\nP\tp2\ts1+,s2+,s4-\t*\n");
    const auto ingest =
        std::make_shared<const graph::LeanIngest>(graph::ingest_gfa(gfa));
    const auto allowed =
        static_cast<std::uint32_t>(core::allowed_cpus_self().size());

    driver::RunRequest req;
    req.ingest = ingest;
    req.backend = "cpu-pipelined";  // deterministic per (seed, threads)
    req.config.iter_max = 3;
    req.config.seed = 7;
    std::vector<std::string> lines;
    req.log = [&](const std::string& line) { lines.push_back(line); };

    req.config.threads = allowed;
    const core::Layout at_allowed = driver::run_layout(req).layout;
    const std::string clamp_line = "clamping --threads " +
                                   std::to_string(allowed + 3) + " to " +
                                   std::to_string(allowed) + " allowed CPUs";
    EXPECT_EQ(std::count(lines.begin(), lines.end(), clamp_line), 0);

    req.config.threads = allowed + 3;
    const core::Layout clamped = driver::run_layout(req).layout;
    EXPECT_EQ(std::count(lines.begin(), lines.end(), clamp_line), 1);
    EXPECT_EQ(clamped.start_x, at_allowed.start_x);
    EXPECT_EQ(clamped.start_y, at_allowed.start_y);
    EXPECT_EQ(clamped.end_x, at_allowed.end_x);
    EXPECT_EQ(clamped.end_y, at_allowed.end_y);
}

}  // namespace
