#include "minnow/minnow_system.hh"

#include "base/logging.hh"

namespace minnow::minnowengine
{

using runtime::Machine;

MinnowSystem::MinnowSystem(Machine *machine,
                           std::uint32_t lgBucketInterval,
                           const PrefetchProgram &program,
                           std::uint32_t engines)
    : machine_(machine),
      global_(&machine->alloc, lgBucketInterval)
{
    fatal_if(!machine->cfg.minnow.enabled,
             "MinnowSystem on a machine without minnow.enabled");
    fatal_if(engines == 0 || engines > machine->cfg.numCores,
             "bad engine count %u", engines);
    coresPerEngine_ =
        std::max(1u, machine->cfg.minnow.coresPerEngine);
    std::uint32_t numEngines =
        (engines + coresPerEngine_ - 1) / coresPerEngine_;
    engines_.reserve(numEngines);
    for (std::uint32_t e = 0; e < numEngines; ++e) {
        // A shared engine attaches to its first core's L2.
        engines_.push_back(std::make_unique<MinnowEngine>(
            machine, CoreId(e * coresPerEngine_), &global_,
            program));
        // Spec-slot deposits may only target cores that run workers
        // (the last shared engine can be partial).
        std::uint32_t lo = e * coresPerEngine_;
        std::uint32_t hi = std::min(engines, lo + coresPerEngine_);
        engines_.back()->setActiveCores(hi - lo);
    }
    // Route L2 prefetch-bit credit returns to the owning engine.
    machine->memory.setCreditHook(
        [this](CoreId core, bool used) {
            std::size_t e = core / coresPerEngine_;
            if (e < engines_.size())
                engines_[e]->creditReturn(used);
        });
    // Release blocked cores / parked daemons at termination.
    for (auto &eng : engines_) {
        MinnowEngine *raw = eng.get();
        machine->monitor.subscribeTermination(
            [raw] { raw->onTerminate(); });
    }
    // Schedule any engine_kill/engine_stall/credit_starve clauses
    // aimed at our engines.
    if (machine->faults) {
        for (auto &eng : engines_)
            eng->armFaults(*machine->faults);
    }
    // Global-queue visibility in stats dumps and watchdog
    // diagnostics (fresh per run; removed again in the destructor).
    StatsGroup &wg = machine->stats.freshGroup("worklist");
    wg.formula("size", "tasks in the software global queue",
               [this] { return double(global_.size()); });
    wg.formula("spills", "tasks spilled by engines",
               [this] { return double(global_.spills()); });
    wg.formula("fills", "engine fill batches served",
               [this] { return double(global_.fills()); });
    wg.formula("softwarePops",
               "degraded-mode pops by workers of faulted engines",
               [this] { return double(global_.softwarePops()); });
    if (machine->timeline) {
        machine->timeline->addCounterProvider(
            timeline::Cat::Worklist, "worklist.globalDepth", this,
            [this] { return double(global_.size()); });
    }
    // Checkpoint sections for the run-scoped scheduler state: the
    // software global queue and each engine. Like every section they
    // are witnesses, compared with a replayed run's (DESIGN.md
    // section 5i).
    machine->addCkptHook("globalq", [this](ckpt::Ckpt &ck) {
        global_.checkpoint(ck);
    });
    for (std::size_t e = 0; e < engines_.size(); ++e) {
        MinnowEngine *raw = engines_[e].get();
        machine->addCkptHook("minnow" + std::to_string(e),
                             [raw](ckpt::Ckpt &ck) {
                                 raw->checkpoint(ck);
                             });
    }
}

MinnowSystem::~MinnowSystem()
{
    machine_->memory.setCreditHook(nullptr);
    machine_->removeCkptHook("globalq");
    for (std::size_t e = 0; e < engines_.size(); ++e)
        machine_->removeCkptHook("minnow" + std::to_string(e));
    machine_->stats.removeGroup("worklist");
    // Providers capture this (stack-local) system; the timeline
    // outlives it.
    if (machine_->timeline)
        machine_->timeline->removeProviders(this);
}

void
MinnowSystem::seedInitial(const std::vector<worklist::WorkItem> &items)
{
    // Half-fill local queues round-robin (mirrors Galois's initial
    // range distribution), spill the rest to the global queue.
    std::uint32_t capPerEngine =
        machine_->cfg.minnow.localQueueEntries / 2;
    if (capPerEngine == 0)
        capPerEngine = 1;
    std::size_t i = 0;
    for (std::uint32_t round = 0;
         round < capPerEngine && i < items.size(); ++round) {
        for (auto &eng : engines_) {
            if (i >= items.size())
                break;
            // Private localQ insert: pending but not stealable.
            machine_->monitor.addWork(1, false);
            eng->seedLocal(items[i++]);
        }
    }
    std::uint64_t spilled = 0;
    for (; i < items.size(); ++i) {
        global_.pushInitial(items[i]);
        ++spilled;
    }
    if (spilled)
        machine_->monitor.addWork(spilled, true);
}

void
MinnowSystem::startDaemons()
{
    for (auto &eng : engines_)
        eng->startDaemon();
}

EngineStats
MinnowSystem::totals() const
{
    EngineStats t;
    for (const auto &eng : engines_) {
        const EngineStats &s = eng->stats();
        t.enqueues += s.enqueues;
        t.dequeues += s.dequeues;
        t.dequeueLocalHits += s.dequeueLocalHits;
        t.dequeueBlocks += s.dequeueBlocks;
        t.spillsSpawned += s.spillsSpawned;
        t.fillBatches += s.fillBatches;
        t.itemsFilled += s.itemsFilled;
        t.prefetchTasks += s.prefetchTasks;
        t.prefetchEdges += s.prefetchEdges;
        t.prefetchLoads += s.prefetchLoads;
        t.creditStalls += s.creditStalls;
        t.loadBufStalls += s.loadBufStalls;
        t.threadletsSpawned += s.threadletsSpawned;
        t.prefetchDeferred += s.prefetchDeferred;
        t.prefetchPendingPeak =
            std::max(t.prefetchPendingPeak, s.prefetchPendingPeak);
        t.prefetchCancelled += s.prefetchCancelled;
        t.cuBusyCycles += s.cuBusyCycles;
        t.faultKills += s.faultKills;
        t.faultStalls += s.faultStalls;
        t.tasksRescued += s.tasksRescued;
        t.fallbackPops += s.fallbackPops;
        t.prefetchDropped += s.prefetchDropped;
        t.creditsLost += s.creditsLost;
        t.dequeueBundleTasks += s.dequeueBundleTasks;
        t.creditHandoffs += s.creditHandoffs;
        t.specDeposits += s.specDeposits;
        t.specHits += s.specHits;
        t.specReclaims += s.specReclaims;
        t.dqDoorbellCycles += s.dqDoorbellCycles;
        t.dqWaitCycles += s.dqWaitCycles;
        t.dqDeliverCycles += s.dqDeliverCycles;
    }
    return t;
}

} // namespace minnow::minnowengine
