/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * A FaultInjector is configured from a compact spec string (the
 * --faults flag) and hands out yes/no and extra-delay decisions to
 * the components that model the faults: the Minnow engines (kill,
 * stall, credit starvation, dropped prefetches) and the memory
 * system (NoC and DRAM latency spikes, dropped hardware prefetches).
 *
 * Spec grammar (whitespace around tokens is ignored):
 *
 *   spec    := clause (';' clause)*
 *   clause  := kind (':' key '=' value (',' key '=' value)*)?
 *
 * Kinds and their keys:
 *
 *   engine_kill    core=<id>, at=<cycle>
 *       The engine owning <core> dies permanently at <at>: local
 *       tasks are rescued to the global queue, blocked workers are
 *       released and fall back to the software worklist path.
 *   engine_stall   core=<id>, at=<cycle>, dur=<cycles>
 *       Same degradation as a kill, but the engine recovers once
 *       the window [at, at+dur) ends.
 *   noc_delay      p=<prob>, add=<cycles> [, at=, dur=]
 *       Each NoC traversal in the window pays <add> extra cycles
 *       with probability p.
 *   dram_delay     p=<prob>, add=<cycles> [, at=, dur=]
 *       Each demand DRAM access in the window pays <add> extra
 *       cycles with probability p.
 *   drop_prefetch  p=<prob> [, core=, at=, dur=]
 *       Each prefetch issue (engine threadlet or hardware
 *       prefetcher) is silently lost with probability p. Dropped
 *       engine prefetches consume no credit.
 *   credit_starve  core=<id>, at=<cycle> [, dur=<cycles>]
 *       Credit-return messages to <core>'s engine are lost inside
 *       the window (dur absent = forever), shrinking the prefetch
 *       credit pool.
 *
 * Determinism contract: every stochastic decision flows through one
 * private Rng seeded from (seed, spec). Because the event queue is
 * single-threaded and bit-reproducible, two runs with the same
 * machine configuration, fault spec, and seed take identical fault
 * decisions and produce byte-identical stats JSON.
 */

#ifndef MINNOW_SIM_FAULT_HH
#define MINNOW_SIM_FAULT_HH

#include <string>
#include <vector>

#include "base/ckpt.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "base/types.hh"

namespace minnow::timeline
{
class Timeline;
} // namespace minnow::timeline

namespace minnow
{

/** One parsed clause of a fault spec. */
struct FaultClause
{
    enum class Kind
    {
        EngineKill,
        EngineStall,
        NocDelay,
        DramDelay,
        DropPrefetch,
        CreditStarve,
    };

    Kind kind;
    /** Target core (engine faults, credit_starve, drop_prefetch). */
    CoreId core = kAnyCore;
    /** Onset cycle of the fault window. */
    Cycle at = 0;
    /** Window length; 0 means "until the end of the run". */
    Cycle dur = 0;
    /** Per-event probability (stochastic kinds; default fire always). */
    double p = 1.0;
    /** Extra latency in cycles (delay kinds). */
    Cycle add = 0;

    static constexpr CoreId kAnyCore = ~CoreId(0);

    /** kind as the spec-string keyword. */
    const char *kindName() const;
};

/** Aggregate counters for the "faults" stats group. */
struct FaultStats
{
    std::uint64_t nocDelays = 0;
    std::uint64_t nocDelayCycles = 0;
    std::uint64_t dramDelays = 0;
    std::uint64_t dramDelayCycles = 0;
    std::uint64_t prefetchDrops = 0;
    std::uint64_t creditsSwallowed = 0;
};

/**
 * Parses a fault spec and answers injection queries deterministically.
 *
 * The injector is owned by the Machine and consulted from the timing
 * paths; it holds no pointers into the components it perturbs, so the
 * memory system and the engines can both use it freely.
 */
class FaultInjector
{
  public:
    /** Parse spec (fatal() on malformed input) and seed the stream. */
    FaultInjector(const std::string &spec, std::uint64_t seed);

    /** Bind the simulated clock (EventQueue::nowRef) for windows. */
    void bindClock(const Cycle *now) { now_ = now; }

    /**
     * Attach the machine's timeline (nullptr detaches): every fired
     * drop_prefetch / credit_starve decision emits an instant event
     * on the simulator track.
     */
    void bindTimeline(timeline::Timeline *tl) { tl_ = tl; }

    const std::vector<FaultClause> &clauses() const
    {
        return clauses_;
    }
    bool empty() const { return clauses_.empty(); }
    const std::string &spec() const { return spec_; }

    /** Extra cycles to add to one NoC traversal happening now. */
    Cycle nocExtraDelay();
    /** Extra cycles to add to one demand DRAM access happening now. */
    Cycle dramExtraDelay();
    /** Should this prefetch issue by/for `core` be dropped? */
    bool dropPrefetch(CoreId core);
    /** Is a credit return to `core`'s engine lost right now? */
    bool swallowCreditReturn(CoreId core);

    const FaultStats &stats() const { return stats_; }

    /** Register the "faults" group with injection counters. */
    void registerStats(StatsRegistry &reg);

    /**
     * Parse one clause; exposed for tests. fatal() on errors, naming
     * the offending token and its offset within the full spec
     * (@p base is the clause's start offset in that spec).
     */
    static FaultClause parseClause(const std::string &text,
                                   std::size_t base = 0);

    /**
     * Serialize the RNG stream position and injection counters. The
     * parsed clauses are construction-time config covered by the
     * machine-level config fingerprint, so the witness leaves them
     * out.
     */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        rng_.checkpoint(ck);
        ck.io(stats_);
        ck.transient("spec_ clauses_ now_ tl_ statsClaim_");
    }

  private:
    Cycle now() const { return now_ ? *now_ : 0; }
    /** Is `c` active at the current cycle? */
    bool inWindow(const FaultClause &c) const;
    /** Does `c` target `core` (or any core)? */
    static bool targets(const FaultClause &c, CoreId core);

    std::string spec_;
    std::vector<FaultClause> clauses_;
    Rng rng_;
    const Cycle *now_ = nullptr;
    timeline::Timeline *tl_ = nullptr;
    FaultStats stats_;
    /** The "faults" group: its formulas capture `this`. */
    StatsClaim statsClaim_;
};

} // namespace minnow

#endif // MINNOW_SIM_FAULT_HH
