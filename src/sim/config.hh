/**
 * @file
 * Machine configuration structures mirroring Table 3 of the paper.
 *
 * Two presets are provided:
 *  - paperMachine(): the exact Table 3 parameters (64 Skylake-like
 *    cores, 256 KB L2, 64 MB L3, 12 DDR4-2400 channels).
 *  - scaledMachine(): same core microarchitecture but with caches
 *    scaled down ~4-64x so that the scaled graph inputs (Section 6 of
 *    DESIGN.md) stress the hierarchy the same way the paper's
 *    150 MB-1 GB inputs stress the real one. Benches default to this.
 */

#ifndef MINNOW_SIM_CONFIG_HH
#define MINNOW_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "base/types.hh"

namespace minnow
{

class Options;

/** Out-of-order core limit-study parameters. */
struct CoreParams
{
    std::uint32_t dispatchWidth = 4; //!< uops dispatched per cycle.
    std::uint32_t robEntries = 224;  //!< reorder buffer size.
    std::uint32_t rsEntries = 97;    //!< unified reservation station.
    std::uint32_t lqEntries = 72;    //!< load queue size.
    std::uint32_t sqEntries = 56;    //!< store queue size.

    /** Redirect penalty for a mispredicted branch, in cycles. */
    std::uint32_t mispredictPenalty = 16;

    /**
     * TAGE does well on loop exits and visited-checks; residual
     * mispredict rates by branch kind (see cpu::BranchKind).
     */
    double loopMispredictRate = 0.01;
    double dataMispredictRate = 0.12;

    /** Model perfect branch prediction (Fig. 4 "ideal" mode). */
    bool perfectBranches = false;

    /** Model x86-TSO fences around atomics (Fig. 4 realistic mode). */
    bool atomicFences = true;

    bool operator==(const CoreParams &) const = default;
};

/** One cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t assoc = 8;
    std::uint32_t latency = 4;       //!< hit latency in cycles.

    std::uint32_t sets() const
    {
        return std::uint32_t(sizeBytes / (assoc * kLineBytes));
    }

    bool operator==(const CacheParams &) const = default;
};

/** Mesh network-on-chip parameters (Table 3: 8x8, X-Y routing). */
struct NocParams
{
    std::uint32_t meshWidth = 8;     //!< tiles per row/column.
    std::uint32_t cyclesPerHop = 3;
    std::uint32_t linkBits = 512;    //!< payload bits per cycle per link.

    bool operator==(const NocParams &) const = default;
};

/** DRAM channel model (Table 3: 12-channel DDR4-2400 CL17). */
struct DramParams
{
    std::uint32_t channels = 12;

    /**
     * Random-access latency seen past the L3, in core cycles:
     * tRP+tRCD+tCL of DDR4-2400 (~42 ns) plus controller overheads,
     * at 2.5 GHz.
     */
    std::uint32_t accessLatency = 120;

    /**
     * Channel occupancy per 64 B line transfer in 1/128ths of a core
     * cycle. DDR4-2400 moves 19.2 GB/s; at 2.5 GHz that is 7.68 B per
     * core cycle, i.e. 64 B occupies the channel ~8.33 cycles -> 1067.
     */
    std::uint32_t serviceFp128 = 1067;

    bool operator==(const DramParams &) const = default;
};

/** Minnow engine parameters (Table 3 bottom block + Section 5). */
struct MinnowParams
{
    bool enabled = false;            //!< attach engines at all.
    bool prefetchEnabled = false;    //!< worklist-directed prefetching.

    std::uint32_t localQueueEntries = 64;
    std::uint32_t localQueueLatency = 10; //!< core<->engine access.
    std::uint32_t loadBufferEntries = 32;
    std::uint32_t loadBufferWakeup = 4;   //!< CAM search latency.
    std::uint32_t threadletQueueEntries = 128;
    std::uint32_t prefetchCredits = 32;   //!< reserved L2 lines.

    /** Refill the local queue from the global worklist below this. */
    std::uint32_t refillThreshold = 16;

    /**
     * Cores per engine (Section 4: "Cores may share a single Minnow
     * engine to reduce resources"). 1 = the paper's evaluated
     * dedicated-engine design. A shared engine attaches to its
     * first core's L2 and serves all its cores' accelerator calls,
     * so control-unit and local-queue contention emerge naturally.
     */
    std::uint32_t coresPerEngine = 1;

    bool operator==(const MinnowParams &) const = default;
};

/** Which (if any) hardware L2 prefetcher the baseline cores use. */
enum class PrefetcherKind
{
    None,
    Stride,
    Imp,
};

/**
 * Causal attribution's pollution / re-miss window in cycles: a line
 * evicted by a prefetch fill counts as polluting only if it
 * demand-misses again within this many cycles (DESIGN.md 5k).
 */
constexpr std::uint32_t kAttributionWindow = 4096;

/** Complete simulated machine. */
struct MachineConfig
{
    std::uint32_t numCores = 64;
    std::uint64_t coreFreqHz = 2'500'000'000ull;

    CoreParams core;
    CacheParams l1d{32 * 1024, 8, 4};
    CacheParams l2{256 * 1024, 8, 7};
    /** Per-core L3 bank; total L3 = numCores * l3Bank.sizeBytes. */
    CacheParams l3Bank{2 * 1024 * 1024, 16, 27};
    NocParams noc;
    DramParams dram;
    MinnowParams minnow;
    PrefetcherKind prefetcher = PrefetcherKind::None;

    /**
     * Functional-vs-timing skew bound: a simulated thread yields to
     * the event queue at least every this many local cycles.
     */
    std::uint32_t syncQuantum = 400;

    /**
     * When nonzero, the machine's stats registry snapshots every
     * non-histogram stat each this-many cycles (--stats-interval=);
     * samples ride along in the JSON stats export.
     */
    std::uint32_t statsSampleInterval = 0;

    /**
     * Fault-injection spec (--faults=; see sim/fault.hh for the
     * grammar). Empty disables injection entirely.
     */
    std::string faultSpec;

    /** RNG seed for the fault injector (--seed; replay contract). */
    std::uint64_t faultSeed = 1;

    /**
     * Watchdog check interval in cycles (--watchdog=). When nonzero
     * the machine arms a sim/watchdog.hh Watchdog that panics with a
     * structured diagnostic after kWatchdogStaleChecks consecutive
     * checks without forward progress.
     */
    std::uint32_t watchdogInterval = 0;

    /**
     * When nonempty, watchdog trips and event-budget timeouts write
     * their diagnostic JSON here (--diag-json=).
     */
    std::string diagnosticPath;

    /**
     * Best-effort stats JSON written by panic() before aborting
     * (--panic-stats=; empty disables the snapshot).
     */
    std::string panicStatsPath = "minnow-panic-stats.json";

    /**
     * Host-side self-profiling (--host-profile): measure events/sec,
     * host-ns per component class and queue-occupancy histograms,
     * exported as the "hostprof" stats group. Off by default (it
     * adds two clock reads per instrumented component entry).
     */
    bool hostProfile = false;

    /**
     * Simulated-time timeline trace (--timeline=FILE; see
     * sim/timeline.hh). Empty disables tracing entirely — no sink is
     * constructed and emit sites cost one null-check.
     */
    std::string timelinePath;

    /** Ring capacity in records (--timeline-buffer=N). */
    std::uint32_t timelineBufferCap = 1u << 18;

    /**
     * Causal attribution layer (--attribution; DESIGN.md section
     * 5k): per-prefetch lifecycle provenance (timely / late /
     * early-evicted / redundant / polluting classification with
     * issue→fill→use histograms, the "attribution" stats group) and
     * task lineage flows (push→pop arrows in the timeline trace).
     * Off by default: no tracker is constructed and every emit site
     * costs one null-check. It is a model-visible observability
     * knob and enters the config fingerprint.
     */
    bool attribution = false;

    std::uint64_t totalL3Bytes() const
    {
        return std::uint64_t(numCores) * l3Bank.sizeBytes;
    }

    /** Sanity-check invariants; fatal() on nonsense. */
    void validate() const;

    /** Apply --cores=, --rob=, --credits=, ... command-line overrides. */
    void applyOptions(const Options &opts);

    /** Human-readable multi-line description (Table 3 bench). */
    std::string describe() const;

    /** Every field equal: two machines that run alike. */
    bool operator==(const MachineConfig &) const = default;
};

/** Exact Table 3 machine. */
MachineConfig paperMachine();

/**
 * Cache-scaled machine for second-scale experiment runs: L1D 16 KB,
 * L2 64 KB, L3 32 KB/bank (2 MB total at 64 cores). Everything else
 * matches Table 3.
 */
MachineConfig scaledMachine();

} // namespace minnow

#endif // MINNOW_SIM_CONFIG_HH
