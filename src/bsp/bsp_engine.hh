/**
 * @file
 * Bulk-synchronous vertex-program engine, standing in for GraphMat
 * (Sundaram et al., VLDB'15) in the Figs. 2-3 comparisons.
 *
 * Execution model (Section 3.1): each superstep processes every
 * active vertex in parallel over static range partitions, generates
 * the next active set, hits a global barrier, and repeats until no
 * vertex is active. Unordered by construction. A "bucketed" mode
 * mirrors the GMat* kernel the GraphMat authors wrote for the paper:
 * one full engine pass per priority bucket, giving coarse priority
 * order at the cost of per-bucket sweep overhead.
 *
 * The engine reuses the simulated machine: vertices run on cores as
 * timed micro-op streams; the barrier is a real synchronization (all
 * workers reach it before the next superstep starts).
 */

#ifndef MINNOW_BSP_BSP_ENGINE_HH
#define MINNOW_BSP_BSP_ENGINE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "apps/app.hh"
#include "galois/executor.hh"
#include "runtime/machine.hh"

namespace minnow::bsp
{

/** Per-superstep statistics. */
struct BspStats
{
    std::uint64_t supersteps = 0;
    std::uint64_t vertexOps = 0;   //!< active-vertex executions.
    std::uint64_t sweepWork = 0;   //!< active-flag scan cost proxy.
};

/**
 * Execute @p app to convergence under the BSP model.
 *
 * The app's operator is reused unchanged; the engine feeds it one
 * task per active vertex per superstep and collects newly activated
 * vertices (the app's TaskSink pushes) into the next frontier.
 * @p cfg supplies threads, verification and the event budget, as
 * for the Galois and Minnow executors; the run goes through
 * galois::runEventLoop, so a signal reports it interrupted. With
 * @p bucketed (GMat* mode) each pass processes only the vertices
 * in the lowest priority bucket of width 2^@p lgBucketInterval.
 */
galois::RunResult runBsp(runtime::Machine &machine, apps::App &app,
                         const galois::RunConfig &cfg,
                         bool bucketed = false,
                         std::uint32_t lgBucketInterval = 0,
                         BspStats *stats = nullptr);

} // namespace minnow::bsp

#endif // MINNOW_BSP_BSP_ENGINE_HH
