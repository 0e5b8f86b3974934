#pragma once
// The CPUs this process may run on — what the driver sizes its pools
// against. A cgroup quota, a taskset mask or a container limit can allow
// fewer CPUs than the machine has; oversubscribing that set only
// time-shares the same CPUs, so the driver clamps `--threads` to it (and
// the repo benchmark sizes its component workers from it).
#include <cstdint>
#include <vector>

namespace pgl::core {

/// The calling thread's allowed CPUs (sched_getaffinity), sorted. Falls
/// back to {0 .. hardware_concurrency-1} when the syscall is unavailable;
/// never returns an empty list on a working machine.
std::vector<std::uint32_t> allowed_cpus_self();

}  // namespace pgl::core
