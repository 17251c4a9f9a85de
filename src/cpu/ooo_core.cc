#include "cpu/ooo_core.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/hostprof.hh"
#include "sim/timeline.hh"

namespace minnow::cpu
{

namespace
{

/** L1D hit latency used for cheap (always-hit) loads. */
constexpr Cycle kCheapLoadLatency = 4;

/** Single-cycle ALU latency. */
constexpr Cycle kAluLatency = 1;

} // anonymous namespace

OooCore::OooCore(CoreId id, const CoreParams &params,
                 mem::MemorySystem *memory, std::uint64_t seed)
    : id_(id), params_(params), width_(params.dispatchWidth),
      memory_(memory),
      rng_(seed ^ (0xabcdef1234567890ull + id))
{
}

void
OooCore::registerStats(StatsGroup &g)
{
    const CoreStats *s = &stats_;
    auto count = [&](const char *name, const char *desc,
                     const std::uint64_t *field) {
        g.formula(name, desc, [field] { return double(*field); });
    };
    count("uops", "micro-ops dispatched", &s->uops);
    count("loads", "loads issued (incl. cheap)", &s->loads);
    count("cheapLoads", "always-L1-hit loads", &s->cheapLoads);
    count("delinquentLoads", "first-touch node/edge loads",
          &s->delinquentLoads);
    count("stores", "stores issued", &s->stores);
    count("atomics", "atomic RMWs issued", &s->atomics);
    count("branches", "conditional branches resolved", &s->branches);
    count("mispredicts", "branches mispredicted", &s->mispredicts);
    g.formula("branchStallCycles", "frontend cycles lost to redirects",
              [s] { return double(s->branchStallCycles); });
    g.formula("fenceStallCycles", "cycles atomics waited on TSO fences",
              [s] { return double(s->fenceStallCycles); });
    g.formula("robStallCycles", "dispatch cycles lost to a full ROB",
              [s] { return double(s->robStallCycles); });
    g.formula("mispredictRate", "mispredicts per branch", [s] {
        return s->branches
                   ? double(s->mispredicts) / double(s->branches)
                   : 0.0;
    });
    static const char *phaseNames[3] = {"app", "worklist", "idle"};
    for (int p = 0; p < 3; ++p) {
        const PhaseStats *ps = &s->phases[p];
        std::string base = phaseNames[p];
        g.formula(base + "Cycles",
                  "frontier cycles accrued in this phase",
                  [ps] { return double(ps->cycles); });
        g.formula(base + "Uops", "uops accrued in this phase",
                  [ps] { return double(ps->uops); });
    }
}

Cycle
OooCore::frontier() const
{
    return std::max(feCycle_, minIssue_);
}

Cycle
OooCore::drain() const
{
    return std::max({frontier(), maxMemComplete_, retireCursor_});
}

void
OooCore::idleUntil(Cycle t)
{
    Cycle before = frontier();
    if (t > feCycle_) {
        feCycle_ = t;
        feSlot_ = 0;
    }
    if (t > minIssue_)
        minIssue_ = t;
    accrue(before, 0);
}

void
OooCore::setPhase(Phase p)
{
    if (tl_ && p != phase_) {
        // Close the outgoing phase's residency span at the current
        // frontier; zero-length windows (phase flips with no uops in
        // between) emit nothing.
        static constexpr timeline::Name kPhaseName[] = {
            timeline::Name::PhaseApp,
            timeline::Name::PhaseWorklist,
            timeline::Name::PhaseIdle,
        };
        Cycle f = frontier();
        if (f > tlPhaseStart_) {
            tl_->span(tlTrack_, kPhaseName[int(phase_)],
                      tlPhaseStart_, f);
            tlPhaseStart_ = f;
        }
    }
    phase_ = p;
}

void
OooCore::bindTimeline(timeline::Timeline *tl, std::uint32_t track)
{
    tl_ = tl;
    tlTrack_ = track;
    tlPhaseStart_ = tl ? frontier() : 0;
}

void
OooCore::accrue(Cycle before, std::uint32_t uops)
{
    Cycle after = frontier();
    PhaseStats &ps = stats_.phases[int(phase_)];
    if (after > before)
        ps.cycles += after - before;
    ps.uops += uops;
}

Cycle
OooCore::dispatch(std::uint32_t n, Cycle dep)
{
    // In-order allocation constraints: the ROB entry for the last uop
    // of this run must have retired out of the window, and its RS
    // entry must have completed out of the scheduler.
    Cycle structural = 0;
    std::uint64_t last = uopIndex_ + n - 1;
    if (last >= params_.robEntries) {
        Cycle t = robWindow_.timeAt(last - params_.robEntries);
        if (t > structural) {
            Cycle fe = frontier();
            if (t > fe)
                stats_.robStallCycles += t - fe;
            structural = t;
        }
    }
    if (last >= params_.rsEntries) {
        Cycle t = rsWindow_.timeAt(last - params_.rsEntries);
        structural = std::max(structural, t);
    }

    Cycle dispatchCycle = std::max({feCycle_, minIssue_, structural});
    if (dispatchCycle > feCycle_) {
        feCycle_ = dispatchCycle;
        feSlot_ = 0;
    }
    // Advance n slots, carrying whole cycles into feCycle_.
    std::uint32_t slots = feSlot_ + n;
    std::uint32_t cycles = width_.div(slots);
    feCycle_ += cycles;
    feSlot_ = slots - cycles * params_.dispatchWidth;
    uopIndex_ += n;
    stats_.uops += n;

    return std::max(dispatchCycle, dep);
}

void
OooCore::complete(std::uint32_t n, Cycle t)
{
    retireCursor_ = std::max(retireCursor_, t);
    robWindow_.push(n, retireCursor_);
    rsWindow_.push(n, t);
}

Cycle
OooCore::lqConstraint()
{
    if (loadIndex_ >= params_.lqEntries)
        return lqWindow_.timeAt(loadIndex_ - params_.lqEntries);
    return 0;
}

Cycle
OooCore::sqConstraint()
{
    if (storeIndex_ >= params_.sqEntries)
        return sqWindow_.timeAt(storeIndex_ - params_.sqEntries);
    return 0;
}

Cycle
OooCore::load(Addr addr, Cycle dep, const LoadInfo &info)
{
    HostProfScope hp(HostClass::Core);
    Cycle before = frontier();
    Cycle lq = lqConstraint();
    if (lq > minIssue_)
        minIssue_ = lq; // allocation stalls the frontend.
    Cycle issue = dispatch(1, dep);

    mem::MemAccess req;
    req.addr = addr;
    req.type = mem::AccessType::Load;
    req.core = id_;
    req.when = issue;
    req.site = info.site;
    req.value = info.value;
    req.hasValue = info.hasValue;
    mem::AccessResult res = memory_->access(req);

    complete(1, res.done);
    lqWindow_.push(1, res.done);
    ++loadIndex_;
    maxMemComplete_ = std::max(maxMemComplete_, res.done);

    stats_.loads += 1;
    if (info.delinquent)
        stats_.delinquentLoads += 1;
    accrue(before, 1);
    return res.done;
}

void
OooCore::cheapLoads(std::uint32_t n)
{
    while (n) {
        std::uint32_t m = std::min(n, params_.lqEntries / 2 + 1);
        Cycle before = frontier();
        Cycle lq = lqConstraint();
        if (lq > minIssue_)
            minIssue_ = lq;
        Cycle issue = dispatch(m, 0);
        Cycle done = issue + kCheapLoadLatency;
        complete(m, done);
        lqWindow_.push(m, done);
        loadIndex_ += m;
        stats_.cheapLoads += m;
        stats_.loads += m;
        accrue(before, m);
        n -= m;
    }
}

Cycle
OooCore::store(Addr addr, Cycle dep)
{
    HostProfScope hp(HostClass::Core);
    Cycle before = frontier();
    Cycle sq = sqConstraint();
    if (sq > minIssue_)
        minIssue_ = sq;
    Cycle issue = dispatch(1, dep);

    mem::MemAccess req;
    req.addr = addr;
    req.type = mem::AccessType::Store;
    req.core = id_;
    req.when = issue;
    mem::AccessResult res = memory_->access(req);

    // Stores commit from the SQ post-retirement; the core does not
    // wait, but the entry is busy until the write completes.
    complete(1, issue + kAluLatency);
    sqWindow_.push(1, res.done);
    ++storeIndex_;
    maxMemComplete_ = std::max(maxMemComplete_, res.done);

    stats_.stores += 1;
    accrue(before, 1);
    return res.done;
}

Cycle
OooCore::atomic(Addr addr, Cycle dep)
{
    HostProfScope hp(HostClass::Core);
    Cycle before = frontier();
    Cycle lq = std::max(lqConstraint(), sqConstraint());
    if (lq > minIssue_)
        minIssue_ = lq;

    Cycle issue = dispatch(1, dep);
    Cycle fenceFloor = issue;
    if (params_.atomicFences) {
        // x86-TSO: all older loads and stores must have completed.
        fenceFloor = std::max(issue, maxMemComplete_);
        if (fenceFloor > issue)
            stats_.fenceStallCycles += fenceFloor - issue;
    }

    mem::MemAccess req;
    req.addr = addr;
    req.type = mem::AccessType::Atomic;
    req.core = id_;
    req.when = fenceFloor;
    mem::AccessResult res = memory_->access(req);

    complete(1, res.done);
    lqWindow_.push(1, res.done);
    sqWindow_.push(1, res.done);
    ++loadIndex_;
    ++storeIndex_;
    maxMemComplete_ = std::max(maxMemComplete_, res.done);

    if (params_.atomicFences) {
        // Full barrier: younger ops wait for the RMW to complete.
        minIssue_ = std::max(minIssue_, res.done);
    }

    stats_.atomics += 1;
    accrue(before, 1);
    return res.done;
}

void
OooCore::compute(std::uint32_t n, Cycle dep)
{
    while (n) {
        std::uint32_t m =
            std::min(n, std::max(params_.robEntries / 2, 1u));
        Cycle before = frontier();
        Cycle issue = dispatch(m, dep);
        complete(m, issue + kAluLatency);
        accrue(before, m);
        n -= m;
        dep = 0;
    }
}

Cycle
OooCore::branch(BranchKind kind, Cycle dep)
{
    Cycle before = frontier();
    Cycle issue = dispatch(1, dep);
    Cycle resolve = issue + kAluLatency;
    complete(1, resolve);
    stats_.branches += 1;

    if (!params_.perfectBranches) {
        double rate = kind == BranchKind::Loop
                    ? params_.loopMispredictRate
                    : params_.dataMispredictRate;
        if (rng_.chance(rate)) {
            stats_.mispredicts += 1;
            Cycle redirect = resolve + params_.mispredictPenalty;
            if (redirect > minIssue_) {
                Cycle fe = frontier();
                if (redirect > fe)
                    stats_.branchStallCycles += redirect - fe;
                minIssue_ = redirect;
            }
        }
    }
    accrue(before, 1);
    return resolve;
}

} // namespace minnow::cpu
