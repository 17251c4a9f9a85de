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

/**
 * Execute @p app to convergence under the BSP model.
 *
 * The app's operator is reused unchanged; the engine feeds it one
 * task per active vertex per superstep and collects newly activated
 * vertices (the app's TaskSink pushes) into the next frontier.
 * The run goes through galois::runWorkers, the driver the Galois
 * and Minnow executors share, with @p cfg supplying threads,
 * verification and the event budget. With @p bucketed (GMat*
 * mode) each pass processes only the vertices in the lowest
 * priority bucket of width 2^@p lgBucketInterval. Per-superstep
 * counts land in the "bsp" stats group (supersteps, vertexOps,
 * sweepWork).
 */
galois::RunResult runBsp(runtime::Machine &machine, apps::App &app,
                         const galois::RunConfig &cfg,
                         bool bucketed = false,
                         std::uint32_t lgBucketInterval = 0);

} // namespace minnow::bsp

#endif // MINNOW_BSP_BSP_ENGINE_HH
