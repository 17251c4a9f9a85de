/**
 * @file
 * The Minnow engine (Section 5): a per-core offload accelerator with
 * a hardened front-end (the local task queue with its accelerator
 * interface) and a programmable multithreaded back-end (threadlets,
 * an in-order control unit that context-switches on every L2 access,
 * and a CAM load buffer).
 *
 * Timing model:
 *  - Core <-> engine accelerator calls cost localQueueLatency.
 *  - The control unit is a single-issue resource: threadlet
 *    instruction runs reserve engine-time segments (cuExec).
 *  - Every threadlet L2 access occupies one of loadBufferEntries
 *    slots and wakes its threadlet loadBufferWakeup cycles after the
 *    data returns; with the slot pool exhausted threadlets queue.
 *  - Prefetch loads consume a credit before issue and stall without
 *    one; credits return via the MemorySystem credit hook when the
 *    prefetched line is consumed or evicted (Section 5.3.1).
 *  - Threadlet-queue occupancy is capped; per Section 5.3.2 a
 *    prefetchTask reserves a slot for its children so spawning can
 *    never deadlock.
 *
 * Functional model: worklist state (local queue + software global
 * queue) mutates only at threadlet suspension points, in simulated-
 * time order, exactly like the worker-core worklists.
 */

#ifndef MINNOW_MINNOW_ENGINE_HH
#define MINNOW_MINNOW_ENGINE_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "base/ring_queue.hh"
#include "graph/csr.hh"
#include "minnow/global_queue.hh"
#include "runtime/machine.hh"
#include "runtime/sim_context.hh"
#include "runtime/task.hh"
#include "worklist/worklist.hh"

namespace minnow::minnowengine
{

class MinnowEngine;

/** What the worklist-directed prefetcher should chase per task. */
struct PrefetchProgram
{
    const graph::CsrGraph *graph = nullptr;
    std::uint32_t splitThreshold = ~0u;
    /** TC's custom program: also prefetch destination adjacency. */
    bool chaseAdjacency = false;
    /** Cap on adjacency lines prefetched per destination (TC). */
    std::uint32_t adjacencyLineCap = 8;
    /** App-supplied superseded-task test (see App). */
    std::function<bool(const worklist::WorkItem &)> taskStale;
};

/** Per-threadlet execution context (engine-side mirror of
 *  SimContext). */
class ThreadletCtx
{
  public:
    ThreadletCtx(MinnowEngine *eng, Cycle ready)
        : eng_(eng), ready_(ready)
    {
    }

    /** Run @p instrs control-unit instructions. */
    void exec(std::uint32_t instrs);

    /** Timed L2 read (context-switching); returns data-ready time. */
    runtime::CoTask<Cycle> load(Addr addr, bool prefetch = false);

    /** Timed L2 read-modify-write (global-queue synchronization). */
    runtime::CoTask<Cycle> atomic(Addr addr);

    Cycle ready() const { return ready_; }
    void setReady(Cycle t) { ready_ = t; }
    MinnowEngine &engine() { return *eng_; }

    /** Trigger-task lineage id carried into prefetch accesses
     *  (--attribution; 0 = untracked). */
    std::uint64_t lineage() const { return lineage_; }
    void setLineage(std::uint64_t id) { lineage_ = id; }

  private:
    MinnowEngine *eng_;
    Cycle ready_; //!< data-ready time of this threadlet.
    std::uint64_t lineage_ = 0;
};

/** Aggregate engine statistics. */
struct EngineStats
{
    std::uint64_t enqueues = 0;
    std::uint64_t dequeues = 0;
    std::uint64_t dequeueLocalHits = 0; //!< served from local queue.
    std::uint64_t dequeueBlocks = 0;    //!< core had to wait.
    std::uint64_t spillsSpawned = 0;    //!< tasks sent to spillBuf_.
    std::uint64_t fillBatches = 0;
    std::uint64_t itemsFilled = 0;
    std::uint64_t prefetchTasks = 0;
    std::uint64_t prefetchEdges = 0;
    std::uint64_t prefetchLoads = 0;
    std::uint64_t creditStalls = 0;   //!< prefetch waited for credit.
    std::uint64_t loadBufStalls = 0;  //!< threadlet waited for slot.
    std::uint64_t threadletsSpawned = 0;
    std::uint64_t prefetchDeferred = 0; //!< queued for lack of slots.
    std::uint64_t prefetchPendingPeak = 0;
    std::uint64_t prefetchCancelled = 0; //!< stale, aborted early.
    Cycle cuBusyCycles = 0;

    // Fault injection (sim/fault.hh).
    std::uint64_t faultKills = 0;      //!< engine_kill fired here.
    std::uint64_t faultStalls = 0;     //!< engine_stall fired here.
    std::uint64_t tasksRescued = 0;    //!< flushed to global on faults.
    std::uint64_t fallbackPops = 0;    //!< software-path dequeues.
    std::uint64_t prefetchDropped = 0; //!< injected prefetch drops.
    std::uint64_t creditsLost = 0;     //!< injected lost returns.

    std::uint64_t creditHandoffs = 0; //!< returns given to a waiter.

    // Dequeue round-trip cycle split. No separate NoC hop is modeled
    // on the core<->engine path; the doorbell/delivery legs are the
    // localQueueLatency hops.
    Cycle dqDoorbellCycles = 0; //!< core->engine call legs.
    Cycle dqWaitCycles = 0;     //!< parked waiting for a task.
    Cycle dqDeliverCycles = 0;  //!< engine->core delivery legs.
};

/** One per-core Minnow engine. */
class MinnowEngine
{
  public:
    MinnowEngine(runtime::Machine *machine, CoreId core,
                 MinnowGlobalQueue *globalQueue,
                 const PrefetchProgram &program);

    /** Deregisters the engine's "minnow<N>" stats group. */
    ~MinnowEngine();

    MinnowEngine(const MinnowEngine &) = delete;
    MinnowEngine &operator=(const MinnowEngine &) = delete;

    // ---- Core-side accelerator interface (Section 4.1) ----

    /** minnow_enqueue: accept or spill one task. */
    runtime::CoTask<void> enqueue(runtime::SimContext &ctx,
                                  WorkItem item);

    /**
     * minnow_dequeue: pop one task in one core<->engine round-trip;
     * blocks until one arrives. nullopt means global termination.
     */
    runtime::CoTask<std::optional<WorkItem>>
    dequeue(runtime::SimContext &ctx);

    /** minnow_flush: spill the whole local queue (context switch). */
    runtime::CoTask<void> flush(runtime::SimContext &ctx);

    /** Untimed pre-run seeding into the local queue. */
    void
    seedLocal(WorkItem item)
    {
        std::int64_t bucket = global_->bucketOf(item);
        if (localQ_.empty() || bucket < localBucket_)
            localBucket_ = bucket;
        insertLocal(item);
    }

    /** Start the background fill daemon threadlet. */
    void startDaemon();

    /** Termination hook: release a blocked core with nullopt. */
    void onTerminate();

    /**
     * Credit return from the L2 (via MemorySystem hook): hand the
     * credit to a parked waiter or return it to the pool.
     */
    void creditReturn(bool used);

    // ---- Fault injection (sim/fault.hh) ----

    /**
     * Spawn one fault coroutine per engine_kill/engine_stall clause
     * targeting this engine (called by MinnowSystem after the
     * termination hook is wired up).
     */
    void armFaults(const FaultInjector &faults);

    /**
     * Kill the engine permanently: rescue local tasks to the global
     * queue and release blocked workers through the termination
     * callback so they fall back to the software worklist path.
     */
    void injectKill();

    /** Freeze the engine for @p dur cycles (same degradation). */
    void injectStall(Cycle dur);

    bool dead() const { return dead_; }
    bool stalled() const
    {
        return eq_.now() < stallUntil_;
    }
    /** True while the engine cannot serve its cores. */
    bool faulted() const { return dead_ || stalled(); }

    /**
     * Witness serialization of the engine's deterministic state:
     * local queue, resource pools, spill buffer and counters, in a
     * fixed order. Coroutine state is not saved (DESIGN.md section
     * 5i).
     */
    void checkpoint(ckpt::Ckpt &ck) const;

    const EngineStats &stats() const { return stats_; }
    std::uint32_t localQueueSize() const
    {
        return std::uint32_t(localQ_.size());
    }
    std::int64_t localBucket() const { return localBucket_; }
    std::uint32_t creditsFree() const { return creditsFree_; }
    std::uint32_t prefetchSlotsFreeNow() const
    {
        return prefetchSlotsFree_;
    }
    std::size_t creditWaitersNow() const
    {
        return creditWaiters_.size();
    }

    // ---- Threadlet services (used by ThreadletCtx/programs) ----

    /** Reserve control-unit time; returns segment end. */
    Cycle cuExec(Cycle ready, std::uint32_t instrs);

    /**
     * Timed threadlet L2 access: load-buffer slot, optional prefetch
     * credit, the access, and the CAM wakeup. Returns the data-ready
     * time and updates @p tc.
     */
    runtime::CoTask<Cycle> threadletAccess(ThreadletCtx &tc,
                                           Addr addr, bool prefetch,
                                           bool atomic);

    runtime::Machine &machine() { return *machine_; }
    MinnowGlobalQueue &globalQueue() { return *global_; }

    /**
     * Spawn-reservation gate (Section 5.3.2): a parent threadlet
     * reserves one queue slot for its children, guaranteeing
     * deadlock-free spawning; extra children use free global slots
     * opportunistically. Defined in the .cc.
     */
    struct SpawnGate;

  private:
    friend class ThreadletCtx;
    friend struct EngineAwaiters;

    /** Insert into the local queue; triggers prefetching. */
    void insertLocal(WorkItem item);

    /** Pop the local queue head (front-end FSM). */
    WorkItem popLocal();

    /** Hand a task to a core blocked in dequeue. */
    void deliverToBlocked();

    /** Wake the fill daemon if it is parked engine-locally. */
    void nudgeDaemon();

    /** Return one worklist-type threadlet slot. */
    void releaseThreadletSlot();

    /** Return one prefetch-type threadlet slot. */
    void releasePrefetchSlot();

    /** Return one load-buffer slot to its share's pool. */
    void releaseLoadBufSlot(bool prefetchPool);

    /** Spawn prefetchTask threadlets queued for lack of slots. */
    void tryPendingPrefetch();

    /** Start a prefetchTask whose two slots are already taken. */
    void startPrefetchTask(WorkItem item, std::uint64_t seq);

    /** True once the task with insert-sequence @p seq is stale. */
    bool
    prefetchStale(std::uint64_t seq) const
    {
        return consumedSeq_ > seq + 2;
    }

    /** Child-threadlet epilogue: slot + gate accounting. */
    void finishChild(SpawnGate *gate, bool usedReserved);

    /** Garbage-collect finished threadlet frames. */
    void sweepThreadlets();

    /** Register and start a threadlet body. */
    void adoptThreadlet(runtime::CoTask<void> body);

    /** Front-end FSM: enqueue decision at accelerator-call arrival. */
    runtime::CoTask<void> enqueueArrival(WorkItem item, Cycle when);

    // ---- Fault machinery ----

    /** Waits until the clause fires, then kills/stalls the engine. */
    runtime::CoTask<void> faultTask(FaultClause clause);

    /**
     * Degraded-mode dequeue: pop one task off the software global
     * queue, re-entering the accelerator path if the engine
     * recovers. Returns what dequeue() returns.
     */
    runtime::CoTask<std::optional<WorkItem>>
    dequeueFallback(runtime::SimContext &ctx);

    /**
     * Flush local + spill-buffered tasks to the global queue (they
     * become stealable; monitor accounting moves with them).
     */
    void rescueLocalTasks();

    /** Stall-window end: flush anything that leaked in, wake up. */
    void recoverFromStall();

    /**
     * Spill to the global worklist (Fig. 12): count the @p n tasks
     * the caller just appended to spillBuf_ and start the drain
     * threadlet unless one is already running.
     */
    runtime::CoTask<void> startSpill(std::uint64_t n);

    // Threadlet programs.
    runtime::CoTask<void> spillDrainThreadlet();
    runtime::CoTask<void> fillDaemon();
    runtime::CoTask<void> prefetchTaskThreadlet(WorkItem item,
                                                std::uint64_t seq);
    runtime::CoTask<void> prefetchEdgeThreadlet(EdgeId e,
                                                EdgeId endEdge,
                                                std::uint64_t seq,
                                                SpawnGate *gate,
                                                bool usedReserved,
                                                std::uint64_t lineage);

    runtime::Machine *machine_;
    /** The machine's event queue. */
    EventQueue &eq_;
    CoreId core_;
    MinnowGlobalQueue *global_;
    PrefetchProgram program_;
    const MinnowParams &params_;

    // Front-end state.
    std::deque<WorkItem> localQ_;
    std::int64_t localBucket_ = MinnowGlobalQueue::kNoBucket;
    /** Local-queue slots reserved by an in-flight daemon fill. */
    std::uint32_t localReserved_ = 0;

    // Blocked-core handshake (possibly several cores when the
    // engine is shared).
    struct BlockedWorker
    {
        std::coroutine_handle<> handle;
        std::optional<WorkItem> *slot;
    };
    RingQueue<BlockedWorker> blockedWorkers_;

    // Back-end resource pools. The threadlet queue is partitioned
    // into virtual queues per threadlet type (Section 5.3.2):
    // worklist threadlets (daemon, spills) have a reserved share so
    // credit-blocked prefetch threadlets can never starve them.
    std::uint32_t threadletSlotsFree_;  //!< worklist share.
    std::uint32_t prefetchSlotsFree_;   //!< prefetch share.
    std::uint32_t loadBufWlFree_;       //!< worklist share.
    std::uint32_t loadBufPfFree_;       //!< prefetch share.
    std::uint32_t creditsFree_;
    // Waiter queues churn every few cycles in steady state; they are
    // RingQueues (storage-recycling) so waking/parking threadlets
    // never touches the allocator once warm.
    RingQueue<std::coroutine_handle<>> threadletSlotWaiters_;
    RingQueue<std::coroutine_handle<>> loadBufWlWaiters_;
    RingQueue<std::coroutine_handle<>> loadBufPfWaiters_;
    RingQueue<std::coroutine_handle<>> creditWaiters_;

    Cycle cuBusyUntil_ = 0;

    // Daemon parking.
    std::coroutine_handle<> parkedDaemon_;
    bool daemonRunning_ = false;

    // Prefetch requests waiting for threadlet-queue slots, in
    // local-queue order; entries whose task is consumed first are
    // dropped (prefetching them would be pure pollution).
    RingQueue<std::pair<WorkItem, std::uint64_t>> pendingPrefetch_;

    // Insert/consume sequence numbers driving prefetch-staleness
    // cancellation: a threadlet whose task was consumed a while ago
    // aborts instead of fetching dead data that would pin credits.
    std::uint64_t insertSeq_ = 0;
    std::uint64_t consumedSeq_ = 0;
    std::uint32_t activePrefetchTasks_ = 0;
    // Cap on active prefetchTask threadlets, max(4, credits/4): it
    // bounds how far past the local-queue head the prefetcher works,
    // so credits recycle just in time.
    std::uint32_t prefetchWindow_ = 8;

    // The one spill path: enqueue overflow, work sharing and
    // minnow_flush accumulate here and one drain threadlet pushes it
    // to the global queue in same-bucket batches.
    std::deque<WorkItem> spillBuf_;
    bool spillDrainActive_ = false;

    // Timeline track and stat bookkeeping. Declared before
    // threadlets_/faultTasks_ on purpose (enforced by the
    // coroutine-order lint rule): destroying a suspended threadlet
    // coroutine runs its TlSpan destructor, which touches the lane
    // bookkeeping and histograms below — so these members must
    // outlive the coroutine containers.
    timeline::TrackId tlEngine_ = timeline::kNoTrack;
    timeline::TrackId tlCreditTrack_ = timeline::kNoTrack;
    std::uint32_t tlLastCredits_ = 0; //!< last emitted credit value.
    std::vector<timeline::TrackId> tlLaneTracks_;
    std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                        std::greater<>>
        tlFreeLanes_;

    // Registry-owned distribution stats (point into the group).
    HistogramStat *threadletOccupancyHist_ = nullptr;
    std::string statsGroupName_;

    std::vector<runtime::CoTask<void>> threadlets_;
    EngineStats stats_;

    // Fault state. Fault coroutines live outside threadlets_ so the
    // threadlet occupancy accounting stays clean.
    bool dead_ = false;
    Cycle stallUntil_ = 0;
    std::vector<runtime::CoTask<void>> faultTasks_;

    /** Register counters/formulas/histograms as "minnow<core>". */
    void registerStats();

    // ---- Timeline instrumentation (sim/timeline.hh) ----

    /**
     * RAII threadlet-lifetime span: the constructor grabs the lowest
     * free display lane, the destructor emits [spawn, retire] on that
     * lane's track. Placed at the top of a threadlet coroutine body
     * it covers the whole lifetime (coroutine locals are destroyed
     * at co_return). No-op when tracing is off.
     */
    class TlSpan
    {
      public:
        TlSpan(MinnowEngine *eng, timeline::Name name);
        ~TlSpan();
        TlSpan(const TlSpan &) = delete;
        TlSpan &operator=(const TlSpan &) = delete;

      private:
        MinnowEngine *eng_;
        timeline::Name name_;
        Cycle begin_ = 0;
        std::uint32_t lane_ = 0;
        bool active_ = false;
    };

    /** Lowest free threadlet lane (registers its track on demand). */
    std::uint32_t tlAcquireLane();
    void tlReleaseLane(std::uint32_t lane);

    /** Sample the credit counter track after a change. */
    void tlCredits();
};

} // namespace minnow::minnowengine

#endif // MINNOW_MINNOW_ENGINE_HH
