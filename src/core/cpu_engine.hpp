#pragma once
// The CPU backends (paper Sec. III): one engine class, two worker loops,
// sharing the persistent pool and the coordinate store.
//
//   * "cpu-soa" — the Hogwild loop, PG-SGD with asynchronous updates as
//     odgi-layout runs it. Each worker owns a jumped Xoshiro256+ stream
//     (worker tid = seed stream jumped tid times) and performs its share of
//     the N_steps updates of every iteration without locking; the graph's
//     extreme sparsity makes collisions harmless, exactly the argument of
//     Sec. III-A. One thread is the same loop on a size-0 pool (inline on
//     the caller), so a fixed seed is byte-reproducible there; with more
//     threads the result depends on scheduler interleaving.
//   * "cpu-pipelined" — the deterministic loop (pipelined_engine.cpp):
//     pool producers sample TermBatches ahead while the calling thread
//     applies them in fixed shard order through core::apply_batch. A fixed
//     (seed, threads) pair is byte-reproducible.
//
// The Hogwild loop applies each term as it samples it and never drains a
// batch, but with one thread its bytes equal a 1-thread replay of
// PairSampler::fill_batch + apply_batch in kBatchSliceTerms slices
// (tests/test_engine.cpp keeps that replay as the oracle). The store is
// always the SoA core::XYStore; the cache-friendly AoS organization of the
// paper's Fig. 16 is modelled by memsim::characterize_cpu and gpusim.
#include <cstdint>
#include <memory>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/layout.hpp"
#include "graph/lean_graph.hpp"

namespace pgl::core {

class ThreadPool;

/// Which worker loop a CPU engine runs.
enum class CpuLoop : std::uint8_t {
    kHogwild,    ///< "cpu-soa"
    kPipelined,  ///< "cpu-pipelined"
};

/// Creates a CPU layout engine running `loop`.
std::unique_ptr<LayoutEngine> make_cpu_engine(CpuLoop loop);

/// The pipelined loop behind "cpu-pipelined": pool.size() >= 1 producers
/// sample into a double buffer while the calling thread applies them
/// (defined in pipelined_engine.cpp).
LayoutResult run_pipelined(const graph::LeanGraph& g, const LayoutConfig& cfg,
                           XYStore& store, const ProgressHook& hook,
                           ThreadPool& pool);

/// Runs the full Hogwild PG-SGD loop ("cpu-soa") on the CPU and returns the
/// final layout. Deterministic for cfg.threads == 1 and a fixed seed.
LayoutResult layout_cpu(const graph::LeanGraph& g, const LayoutConfig& cfg);

/// Same, but starting from a caller-provided initial layout.
LayoutResult layout_cpu_from(const graph::LeanGraph& g, const LayoutConfig& cfg,
                             const Layout& initial);

}  // namespace pgl::core
