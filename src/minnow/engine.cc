#include "minnow/engine.hh"

#include <algorithm>
#include <string>

#include "base/logging.hh"
#include "base/trace.hh"
#include "sim/hostprof.hh"

namespace minnow::minnowengine
{

using runtime::CoTask;
using runtime::PhaseGuard;
using runtime::SimContext;

/** Spawn-reservation gate for one parent threadlet (§5.3.2). */
struct MinnowEngine::SpawnGate
{
    std::uint32_t reservedFree = 1; //!< reserved child slots free.
    std::uint32_t active = 0;       //!< children in flight.
    struct ChildWaiter;
    RingQueue<ChildWaiter *> spawnWaiters;
    std::coroutine_handle<> joinWaiter;

    struct ChildWaiter
    {
        std::coroutine_handle<> handle;
        bool viaReserved = false;
    };
};

namespace
{

/** Suspend until an absolute cycle (clamped to "now"). */
struct WaitAt
{
    EventQueue *eq;
    Cycle when;

    bool await_ready() const { return when <= eq->now(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        eq->schedule(when, h);
    }

    void await_resume() const {}
};

/** Take one unit from a counted pool or park in its waiter queue. */
struct PoolAcquire
{
    std::uint32_t *free;
    RingQueue<std::coroutine_handle<>> *waiters;
    std::uint64_t *stallStat;

    bool
    await_ready()
    {
        if (*free > 0) {
            --*free;
            return true;
        }
        return false;
    }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        if (stallStat)
            ++*stallStat;
        waiters->push_back(h);
    }

    void await_resume() const {}
};

} // anonymous namespace

//
// ThreadletCtx
//

void
ThreadletCtx::exec(std::uint32_t instrs)
{
    ready_ = eng_->cuExec(ready_, instrs);
}

CoTask<Cycle>
ThreadletCtx::load(Addr addr, bool prefetch)
{
    return eng_->threadletAccess(*this, addr, prefetch, false);
}

CoTask<Cycle>
ThreadletCtx::atomic(Addr addr)
{
    return eng_->threadletAccess(*this, addr, false, true);
}

//
// MinnowEngine
//

MinnowEngine::MinnowEngine(runtime::Machine *machine, CoreId core,
                           MinnowGlobalQueue *globalQueue,
                           const PrefetchProgram &program)
    : machine_(machine),
      eq_(machine->eq),
      core_(core),
      global_(globalQueue),
      program_(program),
      params_(machine->cfg.minnow),
      creditsFree_(machine->cfg.minnow.prefetchCredits)
{
    // Virtual-queue split of the threadlet queue and load buffer
    // (Section 5.3.2): worklist threadlets (spills/fills) keep
    // reserved entries so prefetch threadlets can never starve the
    // task-delivery path.
    std::uint32_t total = params_.threadletQueueEntries;
    std::uint32_t worklistShare = std::max(8u, total / 8);
    if (worklistShare >= total)
        worklistShare = total > 1 ? total / 2 : total;
    threadletSlotsFree_ = worklistShare;
    prefetchSlotsFree_ = total - worklistShare;

    std::uint32_t lb = params_.loadBufferEntries;
    std::uint32_t lbWl = std::max(4u, lb / 4);
    if (lbWl >= lb)
        lbWl = lb > 1 ? lb / 2 : lb;
    loadBufWlFree_ = lbWl;
    loadBufPfFree_ = lb - lbWl;
    prefetchWindow_ = params_.prefetchWindow
        ? params_.prefetchWindow
        : std::max(4u, params_.prefetchCredits / 4);

    // Pre-size the hot-path waiter rings to their structural bounds
    // so steady-state park/wake cycles never touch the allocator.
    threadletSlotWaiters_.reserve(total);
    loadBufWlWaiters_.reserve(lb);
    loadBufPfWaiters_.reserve(lb);
    creditWaiters_.reserve(params_.prefetchCredits);
    pendingPrefetch_.reserve(params_.localQueueEntries);
    blockedWorkers_.reserve(8);

    registerStats();

    if (auto *tl = machine_->timeline.get()) {
        std::string tag = "engine" + std::to_string(core_);
        tlEngine_ = tl->addTrack(timeline::Cat::Engine,
                                 timeline::Pid::Engines, core_, tag);
        tlCreditTrack_ = tl->addCounterTrack(
            timeline::Cat::Credit,
            "minnow" + std::to_string(core_) + ".credits");
        // Seed the counter so the full budget shows before the
        // first prefetch consumes anything.
        tlLastCredits_ = creditsFree_;
        tl->counter(tlCreditTrack_, eq_.now(),
                    double(creditsFree_));
        tl->addCounterProvider(
            timeline::Cat::Worklist,
            "minnow" + std::to_string(core_) + ".localQ", this,
            [this] { return double(localQ_.size()); });
    }
}

MinnowEngine::~MinnowEngine()
{
    // Formulas registered below point into this object; drop the
    // group so a later dump cannot chase dangling pointers.
    machine_->stats.removeGroup(statsGroupName_);
    if (machine_->timeline)
        machine_->timeline->removeProviders(this);
}

// ---- Timeline instrumentation ----

MinnowEngine::TlSpan::TlSpan(MinnowEngine *eng, timeline::Name name)
    : eng_(eng), name_(name)
{
    auto *tl = eng->machine_->timeline.get();
    if (!tl || !tl->wants(timeline::Cat::Threadlet))
        return;
    active_ = true;
    begin_ = eng->eq_.now();
    lane_ = eng->tlAcquireLane();
}

MinnowEngine::TlSpan::~TlSpan()
{
    if (!active_)
        return;
    eng_->machine_->timeline->span(eng_->tlLaneTracks_[lane_], name_,
                                   begin_,
                                   eng_->eq_.now());
    eng_->tlReleaseLane(lane_);
}

std::uint32_t
MinnowEngine::tlAcquireLane()
{
    if (!tlFreeLanes_.empty()) {
        std::uint32_t lane = tlFreeLanes_.top();
        tlFreeLanes_.pop();
        return lane;
    }
    std::uint32_t lane = std::uint32_t(tlLaneTracks_.size());
    // Lane tids pack per engine: engine N owns [N*1024, N*1024+...).
    tlLaneTracks_.push_back(machine_->timeline->addTrack(
        timeline::Cat::Threadlet, timeline::Pid::Threadlets,
        core_ * 1024 + lane,
        "engine" + std::to_string(core_) + ".t" +
            std::to_string(lane)));
    return lane;
}

void
MinnowEngine::tlReleaseLane(std::uint32_t lane)
{
    tlFreeLanes_.push(lane);
}

void
MinnowEngine::tlCredits()
{
    if (tlCreditTrack_ == timeline::kNoTrack ||
        creditsFree_ == tlLastCredits_)
        return;
    tlLastCredits_ = creditsFree_;
    machine_->timeline->counter(tlCreditTrack_, eq_.now(),
                                double(creditsFree_));
}

void
MinnowEngine::registerStats()
{
    statsGroupName_ = "minnow" + std::to_string(core_);
    // freshGroup: a machine reused across runs rebuilds its engines,
    // and the new engine's stats must replace the old ones.
    StatsGroup &g = machine_->stats.freshGroup(statsGroupName_);

    auto count = [&g, this](const char *name, const char *desc,
                            std::uint64_t EngineStats::*field) {
        g.formula(name, desc,
                  [this, field] { return double(stats_.*field); });
    };
    count("enqueues", "accelerator enqueue calls",
          &EngineStats::enqueues);
    count("dequeues", "accelerator dequeue calls",
          &EngineStats::dequeues);
    count("dequeueLocalHits", "dequeues served from the local queue",
          &EngineStats::dequeueLocalHits);
    count("dequeueBlocks", "dequeues that blocked the core",
          &EngineStats::dequeueBlocks);
    count("spillsSpawned", "tasks sent to the spill drain",
          &EngineStats::spillsSpawned);
    count("fillBatches", "fill-daemon batches pulled",
          &EngineStats::fillBatches);
    count("itemsFilled", "tasks pulled from the global queue",
          &EngineStats::itemsFilled);
    count("prefetchTasks", "prefetchTask threadlets started",
          &EngineStats::prefetchTasks);
    count("prefetchEdges", "edges visited by prefetch threadlets",
          &EngineStats::prefetchEdges);
    count("prefetchLoads", "prefetch loads issued to the L2",
          &EngineStats::prefetchLoads);
    count("creditStalls", "prefetch loads that waited for a credit",
          &EngineStats::creditStalls);
    count("loadBufStalls", "threadlet waits for a load-buffer slot",
          &EngineStats::loadBufStalls);
    count("threadletsSpawned", "threadlets started",
          &EngineStats::threadletsSpawned);
    count("prefetchDeferred", "prefetch tasks queued for lack of slots",
          &EngineStats::prefetchDeferred);
    count("prefetchPendingPeak", "peak deferred-prefetch queue depth",
          &EngineStats::prefetchPendingPeak);
    count("prefetchCancelled", "prefetch threadlets aborted as stale",
          &EngineStats::prefetchCancelled);
    count("faultKills", "engine_kill fault injections taken",
          &EngineStats::faultKills);
    count("faultStalls", "engine_stall fault injections taken",
          &EngineStats::faultStalls);
    count("tasksRescued", "tasks flushed to the global queue on"
          " faults", &EngineStats::tasksRescued);
    count("fallbackPops", "software-path dequeues while faulted",
          &EngineStats::fallbackPops);
    count("prefetchDropped", "prefetch issues lost to fault"
          " injection", &EngineStats::prefetchDropped);
    count("creditsLost", "credit returns lost to fault injection",
          &EngineStats::creditsLost);
    count("dequeueBundleTasks", "tasks returned in dequeue bundles",
          &EngineStats::dequeueBundleTasks);
    count("creditHandoffs", "credit returns handed straight to a"
          " waiter", &EngineStats::creditHandoffs);
    count("specDeposits", "speculative task deliveries launched"
          " (each ends as a specHit or a specReclaim)",
          &EngineStats::specDeposits);
    count("specHits", "dequeues served by the core-side spec slot",
          &EngineStats::specHits);
    count("specReclaims", "spec-slot tasks reclaimed to the global"
          " queue", &EngineStats::specReclaims);
    g.formula("cuBusyCycles", "control-unit busy cycles",
              [this] { return double(stats_.cuBusyCycles); });
    g.formula("dqDoorbellCycles",
              "dequeue core->engine doorbell cycles",
              [this] { return double(stats_.dqDoorbellCycles); });
    g.formula("dqWaitCycles",
              "dequeue cycles parked waiting for a task",
              [this] { return double(stats_.dqWaitCycles); });
    g.formula("dqDeliverCycles",
              "dequeue engine->core delivery cycles",
              [this] { return double(stats_.dqDeliverCycles); });
    g.formula("dequeueLocalHitRate",
              "fraction of dequeues served without blocking",
              [this] {
                  return stats_.dequeues
                      ? double(stats_.dequeueLocalHits) /
                            double(stats_.dequeues)
                      : 0.0;
              });
    g.formula("creditsFree", "prefetch credits free right now",
              [this] { return double(creditsFree_); });
    g.formula("localQueueSize", "local-queue depth right now",
              [this] { return double(localQ_.size()); });

    std::uint32_t occWidth =
        std::max(1u, params_.threadletQueueEntries / 16);
    threadletOccupancyHist_ = &g.histogram(
        "threadletOccupancy",
        "threadlet-queue slots in use at each spawn", occWidth, 20);
}

Cycle
MinnowEngine::cuExec(Cycle ready, std::uint32_t instrs)
{
    Cycle start = std::max(ready, cuBusyUntil_);
    cuBusyUntil_ = start + instrs;
    stats_.cuBusyCycles += instrs;
    return cuBusyUntil_;
}

CoTask<Cycle>
MinnowEngine::threadletAccess(ThreadletCtx &tc, Addr addr,
                              bool prefetch, bool atomic)
{
    tc.exec(1);
    if (prefetch) {
        // Injected fault: the request is lost before it reaches the
        // L2 — no credit is consumed and no line will be tracked.
        if (machine_->faults &&
            machine_->faults->dropPrefetch(core_)) {
            stats_.prefetchDropped += 1;
            tc.exec(1);
            co_return std::max(tc.ready(), eq_.now());
        }
        // Local L2 tag probe: a line already present needs no
        // prefetch, no credit and no load-buffer entry.
        if (machine_->memory.inL2(core_, addr)) {
            if (machine_->attribution)
                machine_->attribution->prefetchRedundant(core_);
            tc.exec(1);
            co_return std::max(tc.ready(), eq_.now());
        }
        // Credits are consumed before issue; without one the
        // threadlet pauses until a prefetched line is consumed or
        // evicted (Section 5.3.1). Acquired *before* the load
        // buffer slot so stalled prefetches cannot starve demand
        // traffic (spills/fills) of load-buffer entries.
        co_await PoolAcquire{&creditsFree_, &creditWaiters_,
                             &stats_.creditStalls};
        tlCredits();
        if (machine_->memory.inL2(core_, addr)) {
            // Filled by someone while we waited; recycle the credit.
            if (machine_->attribution)
                machine_->attribution->prefetchRedundant(core_);
            creditReturn(false);
            tc.exec(1);
            co_return std::max(tc.ready(), eq_.now());
        }
    }
    if (prefetch) {
        co_await PoolAcquire{&loadBufPfFree_, &loadBufPfWaiters_,
                             &stats_.loadBufStalls};
    } else {
        co_await PoolAcquire{&loadBufWlFree_, &loadBufWlWaiters_,
                             &stats_.loadBufStalls};
    }
    EventQueue &eq = eq_;
    Cycle issue = std::max(tc.ready(), eq.now());
    mem::MemAccess req;
    req.addr = addr;
    req.type = atomic ? mem::AccessType::Atomic
                      : mem::AccessType::Load;
    req.core = core_;
    req.when = issue;
    req.engine = true;
    req.prefetch = prefetch;
    req.lineage = tc.lineage();
    mem::AccessResult res = machine_->memory.access(req);
    if (prefetch) {
        stats_.prefetchLoads += 1;
        if (!res.prefetchFilled) {
            // The line was already cached: nothing to track, the
            // credit returns immediately.
            creditReturn(false);
        }
    }
    Cycle ready = std::max(res.done + params_.loadBufferWakeup,
                           eq.now());
    co_await WaitAt{&eq, ready};
    releaseLoadBufSlot(prefetch);
    tc.setReady(ready);
    co_return ready;
}

void
MinnowEngine::creditReturn(bool used)
{
    HostProfScope hp(HostClass::Engine);
    // Injected credit starvation: the return message is lost and the
    // pool shrinks until the fault window closes. Waiting threadlets
    // stay parked; prefetching degrades, the worklist path (its own
    // virtual-queue share) is untouched.
    if (machine_->faults &&
        machine_->faults->swallowCreditReturn(core_)) {
        stats_.creditsLost += 1;
        return;
    }
    DPRINTF(Credit, "credit", "[%u] return (%s), free=%u waiters=%zu",
            core_, used ? "used" : "unused", creditsFree_,
            creditWaiters_.size());
    (void)used; // use/evict split is counted by the MemorySystem.
    if (!creditWaiters_.empty()) {
        std::coroutine_handle<> h = creditWaiters_.front();
        creditWaiters_.pop_front();
        eq_.schedule(eq_.now(), h);
        stats_.creditHandoffs += 1;
        // A direct handoff never touches creditsFree_, so the
        // credits counter track's change detection (tlCredits)
        // cannot see it; emit an explicit spike plus an instant so
        // handoffs show up in the Perfetto credits track.
        if (machine_->timeline) {
            Cycle now = eq_.now();
            machine_->timeline->counter(tlCreditTrack_, now,
                                        double(creditsFree_) + 1.0);
            machine_->timeline->counter(tlCreditTrack_, now,
                                        double(creditsFree_));
            machine_->timeline->instant(
                tlEngine_, timeline::Name::CreditHandoff, now);
        }
    } else {
        creditsFree_ += 1;
        panic_if(creditsFree_ > params_.prefetchCredits,
                 "credit pool overflow");
    }
    tlCredits();
}

void
MinnowEngine::releaseLoadBufSlot(bool prefetchPool)
{
    auto &waiters =
        prefetchPool ? loadBufPfWaiters_ : loadBufWlWaiters_;
    auto &free = prefetchPool ? loadBufPfFree_ : loadBufWlFree_;
    if (!waiters.empty()) {
        std::coroutine_handle<> h = waiters.front();
        waiters.pop_front();
        eq_.schedule(eq_.now(), h);
    } else {
        free += 1;
        panic_if(free > params_.loadBufferEntries,
                 "load buffer pool overflow");
    }
}

void
MinnowEngine::releaseThreadletSlot()
{
    if (!threadletSlotWaiters_.empty()) {
        std::coroutine_handle<> h = threadletSlotWaiters_.front();
        threadletSlotWaiters_.pop_front();
        eq_.schedule(eq_.now(), h);
        return;
    }
    threadletSlotsFree_ += 1;
    panic_if(threadletSlotsFree_ > params_.threadletQueueEntries,
             "threadlet queue pool overflow");
}

void
MinnowEngine::releasePrefetchSlot()
{
    prefetchSlotsFree_ += 1;
    panic_if(prefetchSlotsFree_ > params_.threadletQueueEntries,
             "prefetch slot pool overflow");
    tryPendingPrefetch();
}

void
MinnowEngine::tryPendingPrefetch()
{
    while (!pendingPrefetch_.empty() && prefetchSlotsFree_ >= 2 &&
           activePrefetchTasks_ < prefetchWindow_) {
        auto [item, seq] = pendingPrefetch_.front();
        pendingPrefetch_.pop_front();
        if (prefetchStale(seq)) {
            stats_.prefetchCancelled += 1;
            continue;
        }
        prefetchSlotsFree_ -= 2;
        startPrefetchTask(item, seq);
    }
}

void
MinnowEngine::adoptThreadlet(CoTask<void> body)
{
    // Covers the synchronous prefix of the threadlet body (it runs
    // to its first suspension inside start()); time it spends in the
    // memory system is re-attributed by the nested scope there.
    HostProfScope hp(HostClass::Engine);
    stats_.threadletsSpawned += 1;
    threadletOccupancyHist_->sample(params_.threadletQueueEntries -
                                    threadletSlotsFree_ -
                                    prefetchSlotsFree_);
    sweepThreadlets();
    body.start();
    threadlets_.push_back(std::move(body));
}

void
MinnowEngine::sweepThreadlets()
{
    if (threadlets_.size() < 256)
        return;
    std::erase_if(threadlets_, [](const CoTask<void> &t) {
        return t.done();
    });
}

void
MinnowEngine::startPrefetchTask(WorkItem item, std::uint64_t seq)
{
    DPRINTF(Threadlet, "threadlet", "[%u] prefetchTask payload=%llu"
            " seq=%llu", core_, (unsigned long long)item.payload,
            (unsigned long long)seq);
    stats_.prefetchTasks += 1;
    activePrefetchTasks_ += 1;
    adoptThreadlet(prefetchTaskThreadlet(item, seq));
}

void
MinnowEngine::insertLocal(WorkItem item)
{
    HostProfScope hp(HostClass::Engine);
    panic_if(localQ_.size() >= params_.localQueueEntries,
             "local queue overflow");
    if (machine_->attribution)
        machine_->attribution->taskEnqueued(item.lineage, eq_.now());
    localQ_.push_back(item);
    std::uint64_t seq = insertSeq_++;
    if (params_.prefetchEnabled && program_.graph) {
        if (prefetchSlotsFree_ >= 2 &&
            activePrefetchTasks_ < prefetchWindow_) {
            prefetchSlotsFree_ -= 2;
            startPrefetchTask(item, seq);
        } else {
            pendingPrefetch_.push_back({item, seq});
            stats_.prefetchDeferred += 1;
            stats_.prefetchPendingPeak =
                std::max<std::uint64_t>(stats_.prefetchPendingPeak,
                                        pendingPrefetch_.size());
        }
    }
}

WorkItem
MinnowEngine::popLocalRaw()
{
    HostProfScope hp(HostClass::Engine);
    panic_if(localQ_.empty(), "pop from empty local queue");
    WorkItem item = localQ_.front();
    localQ_.pop_front();
    consumedSeq_ += 1;
    if (!pendingPrefetch_.empty() &&
        pendingPrefetch_.front().first == item) {
        // Too late to prefetch this task; drop the stale request.
        pendingPrefetch_.pop_front();
        stats_.prefetchCancelled += 1;
    }
    tryPendingPrefetch();
    if (localQ_.empty())
        localBucket_ = MinnowGlobalQueue::kNoBucket;
    // Always nudge: besides refills, the daemon also reevaluates
    // its work-sharing condition on every pop.
    nudgeDaemon();
    return item;
}

WorkItem
MinnowEngine::popLocal()
{
    WorkItem item = popLocalRaw();
    machine_->monitor.takeWork(1, false);
    return item;
}

void
MinnowEngine::deliverToBlocked()
{
    while (!blockedWorkers_.empty() && !localQ_.empty()) {
        BlockedWorker w = blockedWorkers_.front();
        blockedWorkers_.pop_front();
        *w.slot = popLocal();
        machine_->monitor.exitIdle();
        eq_.schedule(
            eq_.now() + params_.localQueueLatency,
            w.handle);
    }
    // Any local-queue surplus beyond the blocked workers can ride
    // ahead into free core-side slots (no-op unless --spec-slot).
    trySpecDeposit();
}

void
MinnowEngine::nudgeDaemon()
{
    if (parkedDaemon_) {
        std::coroutine_handle<> h =
            std::exchange(parkedDaemon_, nullptr);
        eq_.schedule(eq_.now(), h);
    }
}

// ---- Speculative next-task delivery (--spec-slot) ----

void
MinnowEngine::trySpecDeposit()
{
    if (!params_.specSlot || spec_.empty() || faulted() ||
        !blockedWorkers_.empty())
        return;
    std::uint32_t n = std::uint32_t(spec_.size());
    for (std::uint32_t i = 0; i < n && !localQ_.empty(); ++i) {
        std::uint32_t idx = (specNext_ + i) % n;
        if (spec_[idx].inFlight ||
            machine_->cores[core_ + idx]->specSlot().valid)
            continue;
        // The task stays pending (non-stealable) in the monitor
        // until the slot is consumed, so termination cannot fire
        // while it is in flight.
        WorkItem item = popLocalRaw();
        spec_[idx].inFlight = true;
        std::uint64_t seq = ++spec_[idx].seq;
        specNext_ = (idx + 1) % n;
        // Counted at launch so the conservation invariant
        // (specDeposits == specHits + specReclaims) covers deposits
        // invalidated mid-flight too.
        stats_.specDeposits += 1;
        adoptThreadlet(specDepositTask(idx, item, seq));
    }
}

CoTask<void>
MinnowEngine::specDepositTask(std::uint32_t idx, WorkItem item,
                              std::uint64_t seq)
{
    co_await WaitAt{&eq_,
                    eq_.now() + params_.localQueueLatency};
    spec_[idx].inFlight = false;
    if (faulted() || spec_[idx].seq != seq) {
        // Rescue/kill invalidated us mid-flight: the task goes to
        // the global queue with the rest of the rescued work.
        global_->pushInitial(item);
        stats_.specReclaims += 1;
        machine_->monitor.transferWork(1, true);
        if (machine_->timeline) {
            machine_->timeline->instant(tlEngine_,
                                        timeline::Name::SpecReclaim,
                                        eq_.now());
        }
        co_return;
    }
    if (!blockedWorkers_.empty()) {
        // A worker parked while the deposit was in flight. Landing
        // in the slot now would strand both (the worker blocks
        // engine-side, the task sits core-side); deliver directly,
        // like deliverToBlocked does. The delivery did its job, so
        // it counts as a hit.
        BlockedWorker w = blockedWorkers_.front();
        blockedWorkers_.pop_front();
        *w.slot = item;
        stats_.specHits += 1;
        machine_->monitor.takeWork(1, false);
        machine_->monitor.exitIdle();
        eq_.schedule(
            eq_.now() + params_.localQueueLatency,
            w.handle);
        co_return;
    }
    machine_->cores[core_ + idx]->specDeposit(seq, item.priority,
                                              item.payload,
                                              item.lineage);
    if (machine_->timeline) {
        machine_->timeline->instant(tlEngine_,
                                    timeline::Name::SpecDeposit,
                                    eq_.now());
    }
}

CoTask<void>
MinnowEngine::specConsumedTask(Cycle when)
{
    co_await WaitAt{&eq_, when};
    trySpecDeposit();
}

void
MinnowEngine::onTerminate()
{
    nudgeDaemon();
    while (!blockedWorkers_.empty()) {
        // Slots stay nullopt: the cores see termination.
        BlockedWorker w = blockedWorkers_.front();
        blockedWorkers_.pop_front();
        eq_.schedule(eq_.now(), w.handle);
    }
}

// ---- Fault injection ----

void
MinnowEngine::armFaults(const FaultInjector &faults)
{
    std::uint32_t cpe = std::max(1u, params_.coresPerEngine);
    for (const FaultClause &c : faults.clauses()) {
        if (c.kind != FaultClause::Kind::EngineKill &&
            c.kind != FaultClause::Kind::EngineStall)
            continue;
        if (c.core / cpe != core_ / cpe)
            continue;
        CoTask<void> t = faultTask(c);
        t.start();
        faultTasks_.push_back(std::move(t));
    }
}

CoTask<void>
MinnowEngine::faultTask(FaultClause clause)
{
    EventQueue &eq = eq_;
    co_await WaitAt{&eq, clause.at};
    if (clause.kind == FaultClause::Kind::EngineKill) {
        injectKill();
        co_return;
    }
    injectStall(clause.dur);
    co_await WaitAt{&eq, clause.at + clause.dur};
    // Another overlapping stall may still be holding the engine
    // down; only the last one ending performs the recovery.
    if (!dead_ && !stalled())
        recoverFromStall();
}

void
MinnowEngine::injectKill()
{
    if (dead_)
        return;
    dead_ = true;
    stats_.faultKills += 1;
    if (machine_->timeline) {
        machine_->timeline->instant(tlEngine_,
                                    timeline::Name::EngineKill,
                                    eq_.now());
    }
    warn("minnow engine %u killed by fault injection at cycle %llu",
         core_, (unsigned long long)eq_.now());
    rescueLocalTasks();
    // Release blocked workers through the same path termination
    // uses; their slots stay empty and dequeue() sends them to the
    // software worklist.
    onTerminate();
}

void
MinnowEngine::injectStall(Cycle dur)
{
    if (dead_)
        return;
    stats_.faultStalls += 1;
    if (machine_->timeline) {
        machine_->timeline->instant(tlEngine_,
                                    timeline::Name::EngineStall,
                                    eq_.now());
    }
    Cycle until = eq_.now() + dur;
    stallUntil_ = std::max(stallUntil_, until);
    cuBusyUntil_ = std::max(cuBusyUntil_, until);
    warn("minnow engine %u stalled by fault injection until cycle"
         " %llu", core_, (unsigned long long)stallUntil_);
    rescueLocalTasks();
    onTerminate(); // release blocked workers to the software path.
}

void
MinnowEngine::rescueLocalTasks()
{
    // Drain-to-empty on every source makes this idempotent: a
    // second invocation (overlapping stall + kill) finds everything
    // empty and touches neither stats nor monitor accounting.
    std::uint64_t n = 0;
    while (!localQ_.empty()) {
        global_->pushInitial(localQ_.front());
        localQ_.pop_front();
        ++n;
    }
    while (!spillBuf_.empty()) {
        global_->pushInitial(spillBuf_.front());
        spillBuf_.pop_front();
        ++n;
    }
    // Spec slots (--spec-slot): reclaim deposited tasks and
    // invalidate in-flight deposits (those reclaim themselves on
    // arrival when they see the bumped sequence).
    for (std::uint32_t i = 0; i < std::uint32_t(spec_.size()); ++i) {
        spec_[i].seq += 1;
        cpu::OooCore &oc = *machine_->cores[core_ + i];
        if (oc.specSlot().valid) {
            global_->pushInitial(takeSpecSlot(oc));
            stats_.specReclaims += 1;
            ++n;
            if (machine_->timeline) {
                machine_->timeline->instant(
                    tlEngine_, timeline::Name::SpecReclaim,
                    eq_.now());
            }
        }
    }
    localBucket_ = MinnowGlobalQueue::kNoBucket;
    // Queued prefetch requests refer to tasks this engine no longer
    // owns; prefetching them would be pure pollution.
    stats_.prefetchCancelled += pendingPrefetch_.size();
    pendingPrefetch_.clear();
    if (n) {
        stats_.tasksRescued += n;
        // The tasks were core-private (pending, non-stealable); in
        // the global queue any worker can take them.
        machine_->monitor.transferWork(n, true);
        if (machine_->timeline) {
            machine_->timeline->instant(tlEngine_,
                                        timeline::Name::TasksRescued,
                                        eq_.now());
        }
    }
}

void
MinnowEngine::recoverFromStall()
{
    if (machine_->timeline) {
        machine_->timeline->instant(tlEngine_,
                                    timeline::Name::EngineRecover,
                                    eq_.now());
    }
    // Flush whatever arrived while frozen (a fill that completed
    // right at the window edge) so software-parked workers get
    // their wakeup, then resume normal service.
    rescueLocalTasks();
    nudgeDaemon();
}

void
MinnowEngine::startDaemon()
{
    panic_if(daemonRunning_, "fill daemon already running");
    panic_if(threadletSlotsFree_ == 0,
             "no threadlet slot for the fill daemon");
    threadletSlotsFree_ -= 1;
    daemonRunning_ = true;
    adoptThreadlet(fillDaemon());
}

// ---- Core-side accelerator interface ----

CoTask<void>
MinnowEngine::enqueue(SimContext &ctx, WorkItem item)
{
    // Fire-and-forget accelerator call: the core hands the task off
    // in a couple of instructions and keeps running — this is what
    // takes scheduling off the critical path. The front-end FSM
    // processes the arrival localQueueLatency cycles later.
    PhaseGuard guard(ctx, cpu::Phase::Worklist);
    stats_.enqueues += 1;
    ctx.compute(2);
    machine_->monitor.addWork(1, false);
    Cycle arrive = std::max(ctx.now() + params_.localQueueLatency,
                            eq_.now());
    adoptThreadlet(enqueueArrival(item, arrive));
    co_await ctx.sync();
}

CoTask<void>
MinnowEngine::enqueueArrival(WorkItem item, Cycle when)
{
    co_await WaitAt{&eq_, when};
    if (faulted()) {
        // The engine cannot accept the call: the task is routed
        // straight to the software global queue, where any worker
        // (including software-fallback ones) can take it. It was
        // booked addWork(1, false) at the call site; making it
        // stealable keeps the monitor accounting exact.
        global_->pushInitial(item);
        stats_.tasksRescued += 1;
        machine_->monitor.transferWork(1, true);
        co_return;
    }
    DPRINTF(Engine, "engine", "[%u] enqueue arrival prio=%lld"
            " payload=%llu localQ=%zu",
            core_, (long long)item.priority,
            (unsigned long long)item.payload, localQ_.size());
    std::int64_t bucket = global_->bucketOf(item);
    bool acceptLocal =
        localQ_.size() + localReserved_ <
            params_.localQueueEntries &&
        (localQ_.empty() || bucket <= localBucket_);
    if (acceptLocal) {
        if (localQ_.empty() || bucket < localBucket_)
            localBucket_ = bucket;
        insertLocal(item);
        deliverToBlocked();
        co_return;
    }
    spillBuf_.push_back(item);
    co_await startSpill(1);
}

CoTask<void>
MinnowEngine::startSpill(std::uint64_t n)
{
    // The buffer lets one threadlet drain bursts with amortized
    // atomics.
    stats_.spillsSpawned += n;
    if (spillDrainActive_)
        co_return;
    spillDrainActive_ = true;
    co_await PoolAcquire{&threadletSlotsFree_, &threadletSlotWaiters_,
                         nullptr};
    adoptThreadlet(spillDrainThreadlet());
}

CoTask<void>
MinnowEngine::spillDrainThreadlet()
{
    TlSpan tlspan(this, timeline::Name::SpillDrain);
    ThreadletCtx tc(this, eq_.now());
    std::vector<WorkItem> batch;
    while (!spillBuf_.empty()) {
        // Gather up to 64 items of the front item's bucket.
        std::int64_t bucket = global_->bucketOf(spillBuf_.front());
        batch.clear();
        for (auto it = spillBuf_.begin();
             it != spillBuf_.end() && batch.size() < 64;) {
            if (global_->bucketOf(*it) == bucket) {
                batch.push_back(*it);
                it = spillBuf_.erase(it);
            } else {
                ++it;
            }
        }
        tc.exec(2 * std::uint32_t(batch.size()));
        co_await global_->spillBatch(tc, batch, bucket, core_);
        machine_->monitor.transferWork(batch.size(), true);
    }
    spillDrainActive_ = false;
    releaseThreadletSlot();
}

namespace
{

/** Park a worker in the engine's blocked queue until delivery. */
struct BlockAwait
{
    MinnowEngine *eng;
    std::optional<WorkItem> *slot;
    void (*park)(MinnowEngine *, std::coroutine_handle<>,
                 std::optional<WorkItem> *);

    bool await_ready() const { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        park(eng, h, slot);
    }

    void await_resume() const {}
};

} // anonymous namespace

WorkItem
MinnowEngine::takeSpecSlot(cpu::OooCore &oc)
{
    const cpu::SpecTaskSlot &s = oc.specSlot();
    WorkItem item{s.priority, s.payload, s.lineage};
    oc.specInvalidate();
    return item;
}

CoTask<std::uint32_t>
MinnowEngine::dequeue(SimContext &ctx, std::vector<WorkItem> &out,
                      std::uint32_t max)
{
    PhaseGuard guard(ctx, cpu::Phase::Worklist);
    // Bundle accounting: a single-task pop is not a bundle.
    const bool bundled = max > 1;
    // Speculative slot (--spec-slot): the engine may have deposited
    // the next task core-side already — then the pop is a handful
    // of local instructions, no engine round-trip at all.
    if (params_.specSlot && ctx.core().specSlot().valid) {
        out.push_back(takeSpecSlot(ctx.core()));
        stats_.dequeues += 1;
        stats_.specHits += 1;
        machine_->monitor.takeWork(1, false);
        ctx.compute(2);
        co_await ctx.sync();
        // Slot-free notification travels back off the critical path;
        // the engine refills the slot when it lands.
        adoptThreadlet(specConsumedTask(
            eq_.now() + params_.localQueueLatency));
        co_return 1;
    }
    stats_.dequeues += 1;
    ctx.compute(1);
    Cycle dqStart = ctx.now();
    co_await ctx.waitUntil(dqStart + params_.localQueueLatency);
    ctx.core().idleUntil(eq_.now());
    stats_.dqDoorbellCycles += params_.localQueueLatency;

    if (faulted()) {
        // Killed or stalled engine: degrade to the software
        // worklist path (the baseline scheduler).
        co_return co_await dequeueFallback(ctx, out);
    }

    if (!localQ_.empty()) {
        // One round-trip, up to max tasks off the local-queue head.
        stats_.dequeueLocalHits += 1;
        std::uint32_t got = 0;
        do {
            out.push_back(popLocal());
            ++got;
        } while (got < max && !localQ_.empty());
        if (bundled)
            stats_.dequeueBundleTasks += got;
        DPRINTF(Engine, "engine", "[%u] dequeue hit n=%u", core_, got);
        trySpecDeposit();
        co_return got;
    }
    if (params_.specSlot && ctx.core().specSlot().valid) {
        // A deposit landed while our pop doorbell was in flight (the
        // core checked the slot before sending it). Consume it here
        // instead of parking — parking would strand both the task
        // (core-side, valid) and the worker (engine-side, blocked).
        out.push_back(takeSpecSlot(ctx.core()));
        stats_.specHits += 1;
        machine_->monitor.takeWork(1, false);
        co_await ctx.waitUntil(eq_.now() +
                               params_.localQueueLatency);
        ctx.core().idleUntil(eq_.now());
        stats_.dqDeliverCycles += params_.localQueueLatency;
        if (bundled)
            stats_.dequeueBundleTasks += 1;
        co_return 1;
    }
    DPRINTF(Engine, "engine", "[%u] dequeue blocks", core_);
    if (machine_->monitor.terminated())
        co_return 0;

    // Block until the engine delivers a task or the run terminates.
    stats_.dequeueBlocks += 1;
    ctx.core().setPhase(cpu::Phase::Idle);
    machine_->monitor.enterIdle();
    if (machine_->monitor.terminated())
        co_return 0;
    nudgeDaemon();

    std::optional<WorkItem> slot;
    Cycle parkStart = eq_.now();
    co_await BlockAwait{this, &slot,
                        [](MinnowEngine *eng,
                           std::coroutine_handle<> h,
                           std::optional<WorkItem> *s) {
                            eng->blockedWorkers_.push_back({h, s});
                        }};
    ctx.core().idleUntil(eq_.now());
    if (!slot && !machine_->monitor.terminated()) {
        // Released by fault injection, not termination: this worker
        // rejoins the run on the software worklist path.
        machine_->monitor.exitIdle();
        co_return co_await dequeueFallback(ctx, out);
    }
    if (!slot)
        co_return 0;
    machine_->tasks->popWait(ctx.id(), parkStart);
    Cycle total = eq_.now() - dqStart;
    stats_.dqDeliverCycles += params_.localQueueLatency;
    if (total >= 2 * Cycle(params_.localQueueLatency))
        stats_.dqWaitCycles +=
            total - 2 * Cycle(params_.localQueueLatency);
    out.push_back(*slot);
    if (bundled)
        stats_.dequeueBundleTasks += 1;
    co_return 1;
}

CoTask<std::uint32_t>
MinnowEngine::dequeueFallback(SimContext &ctx,
                              std::vector<WorkItem> &out)
{
    runtime::WorkMonitor &mon = machine_->monitor;
    for (;;) {
        if (mon.terminated())
            co_return 0;
        if (!faulted()) {
            // The engine recovered while we were on the software
            // path: go back through the accelerator interface (it
            // may hold freshly filled tasks for us).
            co_return co_await dequeue(ctx, out, 1);
        }
        if (global_->size() > 0) {
            WorkItem item;
            bool got =
                co_await global_->popSoftware(ctx, item, core_);
            if (got) {
                mon.takeWork(1, true);
                stats_.fallbackPops += 1;
                out.push_back(item);
                co_return 1;
            }
            continue;
        }
        if (mon.stealable() > 0) {
            // Accounting is ahead of the functional queue (a racing
            // spill is in flight): bounded back-off, then recheck.
            co_await ctx.waitUntil(eq_.now() + 200);
            ctx.core().idleUntil(eq_.now());
            continue;
        }
        ctx.core().setPhase(cpu::Phase::Idle);
        Cycle parkStart = eq_.now();
        bool more = co_await mon.waitForWork();
        ctx.core().idleUntil(eq_.now());
        ctx.core().setPhase(cpu::Phase::Worklist);
        if (!more)
            co_return 0;
        machine_->tasks->popWait(ctx.id(), parkStart);
    }
}

CoTask<void>
MinnowEngine::flush(SimContext &ctx)
{
    PhaseGuard guard(ctx, cpu::Phase::Worklist);
    co_await ctx.waitUntil(ctx.now() + params_.localQueueLatency);
    ctx.core().idleUntil(eq_.now());
    std::uint64_t n = localQ_.size();
    spillBuf_.insert(spillBuf_.end(), localQ_.begin(), localQ_.end());
    localQ_.clear();
    localBucket_ = MinnowGlobalQueue::kNoBucket;
    if (n > 0)
        co_await startSpill(n);
}

// ---- Threadlet programs ----

CoTask<void>
MinnowEngine::fillDaemon()
{
    TlSpan tlspan(this, timeline::Name::FillDaemon);
    ThreadletCtx tc(this, eq_.now());
    runtime::WorkMonitor &mon = machine_->monitor;

    struct Park
    {
        MinnowEngine *eng;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            panic_if(eng->parkedDaemon_, "daemon double-parked");
            eng->parkedDaemon_ = h;
        }

        void await_resume() const {}
    };

    std::vector<WorkItem> batch;
    for (;;) {
        if (mon.terminated())
            break;
        if (dead_) {
            // Killed: the rescue flushed the local queue already;
            // the daemon just retires.
            break;
        }
        if (stalled()) {
            // Control unit frozen: sleep through the stall window
            // (no fills — workers are on the software path and a
            // hoarded local queue would strand tasks).
            co_await WaitAt{&eq_, stallUntil_};
            continue;
        }
        bool localLow =
            localQ_.size() < params_.refillThreshold;
        // Stream when the global head outprioritizes (or matches)
        // the local queue — or when the local queue is about to
        // starve: the filled tasks are the globally best anyway, so
        // appending them early only reorders across one bucket
        // boundary (the same slack a chunked OBIM has).
        bool priorityOk =
            localQ_.size() < params_.refillThreshold / 2 ||
            global_->minBucket() <= localBucket_;
        std::uint32_t space = 0;
        {
            std::uint32_t used =
                std::uint32_t(localQ_.size()) + localReserved_;
            if (used < params_.localQueueEntries)
                space = params_.localQueueEntries - used;
        }
        if (localLow && priorityOk && global_->size() > 0 &&
            space > 0) {
            Cycle fbStart = eq_.now();
            tc.exec(4);
            batch.clear();
            std::uint32_t burst =
                std::min(space, params_.refillThreshold);
            // Reserve the landing slots: concurrent enqueues from
            // our core must not overflow the queue under us.
            localReserved_ += burst;
            std::int64_t bucket = MinnowGlobalQueue::kNoBucket;
            std::uint32_t got = co_await global_->fill(
                tc, burst, batch, bucket, core_);
            localReserved_ -= burst;
            if (got > 0 && faulted()) {
                // Killed or stalled mid-fill: push the batch
                // straight back. The monitor was not told about the
                // transfer yet, so accounting stays exact.
                for (const WorkItem &item : batch)
                    global_->pushInitial(item);
                continue;
            }
            if (got > 0) {
                mon.transferWork(got, false);
                stats_.fillBatches += 1;
                stats_.itemsFilled += got;
                if (localQ_.empty() || bucket < localBucket_)
                    localBucket_ = bucket;
                for (const WorkItem &item : batch)
                    insertLocal(item);
                deliverToBlocked();
                if (machine_->timeline) {
                    machine_->timeline->span(
                        tlEngine_, timeline::Name::FillBatch,
                        fbStart, eq_.now());
                }
            }
            continue;
        }
        if (!localLow) {
            // Work sharing: with idle workers and nothing stealable
            // anywhere, a hoarded local queue serializes the tail of
            // the computation. Flush our excess back to the global
            // worklist (a partial minnow_flush the programmable
            // engine issues on its own).
            if (params_.workSharing && mon.stealable() == 0 &&
                mon.idleWorkers() > 0 &&
                localQ_.size() > params_.refillThreshold) {
                std::uint32_t excess =
                    std::uint32_t(localQ_.size()) -
                    params_.refillThreshold;
                for (std::uint32_t i = 0; i < excess; ++i) {
                    spillBuf_.push_back(localQ_.back());
                    localQ_.pop_back();
                }
                co_await startSpill(excess);
                continue;
            }
            // Local queue is healthy: hand any monitor wakeup we
            // consumed to someone needier and park engine-locally
            // until our core drains the queue.
            if (mon.stealable() > 0)
                mon.rewake(1);
            co_await Park{this};
            continue;
        }
        if (mon.stealable() == 0 && global_->size() == 0) {
            // Nothing to pull anywhere: park on the monitor until
            // stealable work appears (or the run ends).
            bool more = co_await mon.waitForStealable();
            if (!more)
                break;
            continue;
        }
        // Transient (a racing fill's accounting is in flight) or
        // priority-gated (global head is lower priority than our
        // queue): bounded back-off, then recheck.
        co_await WaitAt{&eq_, eq_.now() + 200};
    }
    daemonRunning_ = false;
    releaseThreadletSlot();
}

CoTask<void>
MinnowEngine::prefetchTaskThreadlet(WorkItem item, std::uint64_t seq)
{
    TlSpan tlspan(this, timeline::Name::PrefetchTask);
    ThreadletCtx tc(this, eq_.now());
    tc.setLineage(item.lineage);
    const graph::CsrGraph &g = *program_.graph;
    NodeId v = NodeId(item.payload & 0xffffffffu);
    std::uint32_t part = std::uint32_t(item.payload >> 32);

    // Fig. 14 prefetchTask(): fetch the source node record, then
    // spawn a prefetchEdge threadlet per edge of the task's range.
    tc.exec(4);
    co_await tc.load(g.nodeAddr(v), true);
    tc.exec(2);

    // With the node record in hand, a superseded task (the worker
    // would drop it at its stale cutoff) is not worth prefetching:
    // its lines would pin credits until eviction. A dead engine's
    // tasks were rescued elsewhere, same conclusion.
    if (dead_ || (program_.taskStale && program_.taskStale(item))) {
        stats_.prefetchCancelled += 1;
        panic_if(activePrefetchTasks_ == 0,
                 "prefetch window underflow");
        activePrefetchTasks_ -= 1;
        releasePrefetchSlot();
        releasePrefetchSlot();
        co_return;
    }

    EdgeId begin = g.edgeBegin(v) +
                   EdgeId(part) * program_.splitThreshold;
    EdgeId end = std::min(g.edgeEnd(v),
                          begin + program_.splitThreshold);
    if (begin > g.edgeEnd(v))
        begin = g.edgeEnd(v);

    SpawnGate gate;

    struct ChildSlot
    {
        MinnowEngine *eng;
        SpawnGate *gate;
        SpawnGate::ChildWaiter waiter;
        bool granted = false;

        bool
        await_ready()
        {
            if (eng->prefetchSlotsFree_ > 0) {
                eng->prefetchSlotsFree_ -= 1;
                waiter.viaReserved = false;
                return true;
            }
            if (gate->reservedFree > 0) {
                gate->reservedFree -= 1;
                waiter.viaReserved = true;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            waiter.handle = h;
            gate->spawnWaiters.push_back(&waiter);
        }

        bool await_resume() const { return waiter.viaReserved; }
    };

    // One child per cache line of edge records; each child fetches
    // its line once and then the destination nodes of the edges in
    // it (the same coverage as Fig. 14's per-edge threadlets, with
    // line-granular fetches).
    constexpr EdgeId kEdgesPerLine =
        kLineBytes / graph::CsrGraph::kEdgeBytes;
    for (EdgeId e = begin; e < end;
         e = (e / kEdgesPerLine + 1) * kEdgesPerLine) {
        if (dead_ || prefetchStale(seq)) {
            stats_.prefetchCancelled += 1;
            break; // the worker is already past this task.
        }
        stats_.prefetchEdges += 1;
        tc.exec(2);
        bool viaReserved = co_await ChildSlot{this, &gate, {}, false};
        gate.active += 1;
        adoptThreadlet(
            // LINT-OK(coro-suspend-safety): gate is joined below
            prefetchEdgeThreadlet(e, end, seq, &gate, viaReserved,
                                  item.lineage));
    }

    // Join the children: the gate (and our reserved slot) must
    // outlive them (Section 5.3.2 reservation rules).
    struct Join
    {
        SpawnGate *gate;

        bool await_ready() const { return gate->active == 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            gate->joinWaiter = h;
        }

        void await_resume() const {}
    };
    co_await Join{&gate};

    panic_if(activePrefetchTasks_ == 0, "prefetch window underflow");
    activePrefetchTasks_ -= 1;
    releasePrefetchSlot(); // the reserved child slot.
    releasePrefetchSlot(); // our own slot.
}

void
MinnowEngine::finishChild(SpawnGate *gate, bool usedReserved)
{
    if (usedReserved) {
        if (!gate->spawnWaiters.empty()) {
            SpawnGate::ChildWaiter *w = gate->spawnWaiters.front();
            gate->spawnWaiters.pop_front();
            w->viaReserved = true; // token passes directly on.
            eq_.schedule(eq_.now(), w->handle);
        } else {
            gate->reservedFree += 1;
        }
    } else {
        releasePrefetchSlot();
    }
    gate->active -= 1;
    if (gate->active == 0 && gate->joinWaiter) {
        std::coroutine_handle<> h =
            std::exchange(gate->joinWaiter, nullptr);
        eq_.schedule(eq_.now(), h);
    }
}

CoTask<void>
MinnowEngine::prefetchEdgeThreadlet(EdgeId e, EdgeId endEdge,
                                    std::uint64_t seq,
                                    SpawnGate *gate,
                                    bool usedReserved,
                                    std::uint64_t lineage)
{
    TlSpan tlspan(this, timeline::Name::PrefetchEdge);
    ThreadletCtx tc(this, eq_.now());
    tc.setLineage(lineage);
    const graph::CsrGraph &g = *program_.graph;

    // Fig. 14 prefetchEdge(), line-granular: fetch the edge line,
    // then every destination node it references within this task.
    tc.exec(2);
    co_await tc.load(g.edgeAddr(e), true);
    constexpr EdgeId kEdgesPerLine =
        kLineBytes / graph::CsrGraph::kEdgeBytes;
    EdgeId lineEnd = (e / kEdgesPerLine + 1) * kEdgesPerLine;
    EdgeId stop = std::min(lineEnd, endEdge);
    for (EdgeId i = e; i < stop; ++i) {
        if (dead_ || prefetchStale(seq)) {
            stats_.prefetchCancelled += 1;
            finishChild(gate, usedReserved);
            co_return;
        }
        NodeId dst = g.edgeDst(i);
        tc.exec(2);
        co_await tc.load(g.nodeAddr(dst), true);

        if (program_.chaseAdjacency && g.degree(dst) > 0) {
            // Custom TC program: prefetch the destination's
            // adjacency array in bisection order (the order its
            // binary searches probe it), capped to bound the
            // footprint.
            EdgeId b = g.edgeBegin(dst);
            std::uint64_t bytes = std::uint64_t(g.degree(dst)) *
                                  graph::CsrGraph::kEdgeBytes;
            std::uint64_t lines =
                (bytes + kLineBytes - 1) / kLineBytes;
            std::uint32_t issued = 0;
            for (std::uint64_t denom = 2;
                 denom <= lines &&
                 issued < program_.adjacencyLineCap;
                 denom *= 2) {
                for (std::uint64_t k = 1; k < denom; k += 2) {
                    if (issued >= program_.adjacencyLineCap ||
                        prefetchStale(seq)) {
                        break;
                    }
                    std::uint64_t line = lines * k / denom;
                    Addr addr = lineAddr(g.edgeAddr(b)) +
                                line * kLineBytes;
                    tc.exec(2);
                    co_await tc.load(addr, true);
                    ++issued;
                }
            }
        }
    }
    finishChild(gate, usedReserved);
}

void
MinnowEngine::checkpoint(ckpt::Ckpt &ck) const
{
    ck.io(core_);
    ck.io(localQ_);
    ck.io(localBucket_);
    ck.io(localReserved_);
    ck.io(threadletSlotsFree_);
    ck.io(prefetchSlotsFree_);
    ck.io(loadBufWlFree_);
    ck.io(loadBufPfFree_);
    ck.io(creditsFree_);
    ck.io(cuBusyUntil_);
    ck.io(daemonRunning_);
    ck.io(std::uint64_t(pendingPrefetch_.size()));
    for (std::size_t i = 0; i < pendingPrefetch_.size(); ++i) {
        const auto &[item, seq] = pendingPrefetch_.at(i);
        ck.io(item);
        ck.io(seq);
    }
    ck.io(insertSeq_);
    ck.io(consumedSeq_);
    ck.io(activePrefetchTasks_);
    ck.io(prefetchWindow_);
    ck.io(spillBuf_);
    ck.io(spillDrainActive_);
    ck.io(spec_);
    ck.io(specNext_);
    ck.io(stats_);
    ck.io(dead_);
    ck.io(stallUntil_);
    // Pointers into the machine, coroutine frames/handles, waiter
    // queues and timeline/stat bookkeeping are rebuilt by replay.
    ck.transient("machine_ eq_ global_ program_ params_"
                 " blockedWorkers_"
                 " threadletSlotWaiters_ loadBufWlWaiters_"
                 " loadBufPfWaiters_ creditWaiters_ parkedDaemon_"
                 " tlEngine_ tlCreditTrack_ tlLastCredits_"
                 " tlLaneTracks_ tlFreeLanes_"
                 " threadletOccupancyHist_ statsGroupName_"
                 " threadlets_ faultTasks_");
}

} // namespace minnow::minnowengine
