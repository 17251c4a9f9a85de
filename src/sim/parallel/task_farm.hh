/**
 * @file
 * Host-parallel point farm (--host-par=N).
 *
 * Runs independent simulation points — each with its own Machine,
 * workload and stats — on a fixed number of host threads. Points
 * share no simulator state (thread-local trace clock and host
 * profiler, mutex-free panic-hook registry, see DESIGN.md 5j), so
 * each point's result is byte-identical to a serial run of the same
 * point; only wall-clock ordering differs, and callers print/record
 * results in point order after the join.
 *
 * A figure sweep of K points on N threads approaches N-fold
 * throughput without touching the determinism contract of any
 * single run. This is the simulator's only host threading.
 */

#ifndef MINNOW_SIM_PARALLEL_TASK_FARM_HH
#define MINNOW_SIM_PARALLEL_TASK_FARM_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace minnow::parallel
{

/**
 * Invoke @p fn(i) once for every i in [0, n), using up to
 * @p threads host threads (the calling thread participates; 0 or 1
 * runs everything inline in index order). Returns after every call
 * completed. @p fn must only touch state owned by its own index.
 */
void runTaskFarm(std::size_t n, std::uint32_t threads,
                 const std::function<void(std::size_t)> &fn);

} // namespace minnow::parallel

#endif // MINNOW_SIM_PARALLEL_TASK_FARM_HH
