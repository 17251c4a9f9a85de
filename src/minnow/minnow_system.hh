/**
 * @file
 * Machine-level Minnow wiring.
 *
 * MinnowSystem owns the shared software global queue and one engine
 * per core, registers the L2 credit hook and the termination hooks,
 * and seeds initial work. The executor that drives workers over it
 * is galois::runMinnow (galois/executor.hh).
 */

#ifndef MINNOW_MINNOW_MINNOW_SYSTEM_HH
#define MINNOW_MINNOW_MINNOW_SYSTEM_HH

#include <memory>
#include <vector>

#include "minnow/engine.hh"
#include "minnow/global_queue.hh"
#include "runtime/machine.hh"

namespace minnow::minnowengine
{

/** All Minnow hardware attached to one machine. */
class MinnowSystem
{
  public:
    /**
     * @param machine Host machine (cfg.minnow.enabled must be set).
     * @param lgBucketInterval Bucket interval of the offloaded OBIM.
     * @param program Prefetch program description for the engines.
     * @param engines Number of engines to attach (= worker count).
     */
    MinnowSystem(runtime::Machine *machine,
                 std::uint32_t lgBucketInterval,
                 const PrefetchProgram &program,
                 std::uint32_t engines);

    /** Detaches the credit hook and drops the "worklist" stats group
     *  (both capture this). */
    ~MinnowSystem();

    MinnowEngine &engine(CoreId core)
    {
        return *engines_[core / coresPerEngine_];
    }
    MinnowGlobalQueue &globalQueue() { return global_; }
    std::uint32_t numEngines() const
    {
        return std::uint32_t(engines_.size());
    }

    /**
     * Seed initial tasks: scatter across engine local queues round-
     * robin (half-filling them), overflow into the global queue.
     */
    void seedInitial(const std::vector<worklist::WorkItem> &items);

    /** Start every engine's fill daemon (call once, before run). */
    void startDaemons();

    /** Aggregate engine statistics. */
    EngineStats totals() const;

  private:
    runtime::Machine *machine_;
    MinnowGlobalQueue global_;
    std::uint32_t coresPerEngine_ = 1;
    std::vector<std::unique_ptr<MinnowEngine>> engines_;
};

} // namespace minnow::minnowengine

#endif // MINNOW_MINNOW_MINNOW_SYSTEM_HH
