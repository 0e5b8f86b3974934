#include "core/topology.hpp"

#include <algorithm>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace pgl::core {

std::vector<std::uint32_t> allowed_cpus_self() {
    std::vector<std::uint32_t> cpus;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (std::uint32_t c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) cpus.push_back(c);
        }
    }
#endif
    if (cpus.empty()) {
        const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
        for (std::uint32_t c = 0; c < hc; ++c) cpus.push_back(c);
    }
    return cpus;
}

}  // namespace pgl::core
