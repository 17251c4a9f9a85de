/**
 * @file
 * Fixed pool of shard host threads. No Machine builds one: nothing
 * in the simulator hands it work, and ROADMAP item 1 removes it with
 * the rest of the sharded weave.
 *
 * Lane 0 is the weave leader (the thread that owns the simulation
 * and calls runOnAll()); lanes 1..N-1 are pool workers parked at an
 * epoch barrier. A bound phase is a fork-join: the leader publishes
 * a job, every lane (leader included) runs its slice, and the
 * closing barrier republishes the workers' results to the leader.
 * The opening barrier's happens-before edge makes all simulation
 * state the leader wrote visible to the workers; the closing
 * barrier's edge makes the workers' scratch output visible to the
 * leader. No other synchronization exists or is needed: between
 * epochs the workers touch nothing.
 *
 * The pool threads are the only std::threads in the simulator
 * (minnow-lint rule P1 enforces this); everything they exchange with
 * the leader rides epoch barriers and SPSC channels from this
 * directory.
 */

#ifndef MINNOW_SIM_PARALLEL_SHARD_POOL_HH
#define MINNOW_SIM_PARALLEL_SHARD_POOL_HH

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/parallel/epoch_barrier.hh"

namespace minnow
{
class HostProfiler;
}

namespace minnow::parallel
{

/** The shard host-thread pool (exercised by parallel_test only). */
class ShardPool
{
  public:
    /** @param lanes Total lanes including the leader (>= 1). */
    explicit ShardPool(std::uint32_t lanes);

    /** Releases and joins the workers. */
    ~ShardPool();

    ShardPool(const ShardPool &) = delete;
    ShardPool &operator=(const ShardPool &) = delete;

    std::uint32_t lanes() const { return lanes_; }

    /**
     * Attach the machine's host profiler (null detaches): workers
     * adopt it for the duration of each job so HostProfScope
     * markers on pool threads record into their own lane.
     */
    void setProfiler(HostProfiler *p) { prof_ = p; }

    /**
     * Run @p fn(lane) on every lane; the calling (leader) thread
     * runs lane 0 inline. Returns after all lanes finish. Must only
     * be called from the leader thread, and jobs must not nest.
     */
    void runOnAll(const std::function<void(std::uint32_t)> &fn);

    /** Fork-join epochs completed. */
    std::uint64_t epochs() const { return open_.epoch(); }

    /** Host ns @p lane spent blocked at the fork/join barriers. */
    std::uint64_t
    barrierWaitNs(std::uint32_t lane) const
    {
        return open_.waitNs(lane) + close_.waitNs(lane);
    }

  private:
    void workerLoop(std::uint32_t lane);

    std::uint32_t lanes_;
    EpochBarrier open_;
    EpochBarrier close_;
    /** Job published by the leader before the opening barrier. */
    const std::function<void(std::uint32_t)> *job_ = nullptr;
    bool shutdown_ = false;
    HostProfiler *prof_ = nullptr;
    std::vector<std::thread> threads_;
};

} // namespace minnow::parallel

#endif // MINNOW_SIM_PARALLEL_SHARD_POOL_HH
