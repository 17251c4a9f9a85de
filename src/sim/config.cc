#include "sim/config.hh"

#include <cstdio>
#include <utility>

#include "base/bits.hh"
#include "base/logging.hh"
#include "base/options.hh"

namespace minnow
{

void
MachineConfig::validate() const
{
    fatal_if(numCores == 0, "machine needs at least one core");
    fatal_if(numCores > noc.meshWidth * noc.meshWidth,
             "%u cores do not fit on a %ux%u mesh", numCores,
             noc.meshWidth, noc.meshWidth);
    for (auto [c, name] : {std::pair{&l1d, "l1d"}, std::pair{&l2, "l2"},
                           std::pair{&l3Bank, "l3Bank"}}) {
        unsigned long long bytes = c->sizeBytes;
        fatal_if(bytes == 0, "%s cache size must be nonzero", name);
        fatal_if(bytes % (c->assoc * kLineBytes) != 0,
                 "%s cache size %llu B is not a multiple of"
                 " assoc*line (%u B)", name, bytes,
                 c->assoc * kLineBytes);
        fatal_if(!isPow2(c->sets()),
                 "%s cache size %llu B gives %u sets, not a power"
                 " of two", name, bytes, c->sets());
    }
    fatal_if(core.robEntries == 0 || core.lqEntries == 0 ||
             core.sqEntries == 0,
             "core windows must be nonzero (rob=%u lq=%u sq=%u)",
             core.robEntries, core.lqEntries, core.sqEntries);
    fatal_if(dram.channels == 0, "need at least one DRAM channel");
    fatal_if(minnow.enabled && minnow.localQueueEntries == 0,
             "Minnow local queue must be nonzero");
    fatal_if(minnow.enabled && minnow.loadBufferEntries == 0,
             "Minnow load buffer must be nonzero");
    fatal_if(minnow.prefetchEnabled && !minnow.enabled,
             "prefetching requires Minnow engines");
    fatal_if(minnow.prefetchEnabled && minnow.prefetchCredits == 0,
             "prefetching requires at least one credit");
    fatal_if(!timelinePath.empty() && timelineBufferCap == 0,
             "--timeline needs a nonzero --timeline-buffer");
}

void
MachineConfig::applyOptions(const Options &opts)
{
    numCores = opts.getU32("cores", numCores);
    core.robEntries = opts.getU32("rob", core.robEntries);

    statsSampleInterval =
        opts.getU32("stats-interval", statsSampleInterval);
    hostProfile = opts.getBool("host-profile", hostProfile);

    // Causal attribution layer (DESIGN.md 5k). Model-visible (the
    // tracker serializes into checkpoints), so it enters
    // describe()/configFingerprint().
    attribution = opts.getBool("attribution", attribution);

    // Simulated-time timeline tracing (sim/timeline.hh).
    timelinePath = opts.getString("timeline", timelinePath);
    timelineBufferCap =
        opts.getU32("timeline-buffer", timelineBufferCap);

    // Robustness knobs: fault injection and the hang watchdog. The
    // injector reuses the benches' --seed so a fault run replays
    // from the same command line.
    faultSpec = opts.getString("faults", faultSpec);
    faultSeed = opts.getUint("seed", faultSeed);
    watchdogInterval = opts.getU32("watchdog", watchdogInterval);
    diagnosticPath = opts.getString("diag-json", diagnosticPath);
    panicStatsPath = opts.getString("panic-stats", panicStatsPath);

    // Whether engines attach and prefetch is the run's --config
    // (harness::runExperiment); only the credit budget is a flag.
    minnow.prefetchCredits =
        opts.getU32("credits", minnow.prefetchCredits);

    std::string pf = opts.getString("prefetcher", "");
    if (pf == "stride") {
        prefetcher = PrefetcherKind::Stride;
    } else if (pf == "imp") {
        prefetcher = PrefetcherKind::Imp;
    } else if (pf == "none" || pf.empty()) {
        if (!pf.empty())
            prefetcher = PrefetcherKind::None;
    } else {
        fatal("unknown --prefetcher=%s (none|stride|imp)", pf.c_str());
    }

    // Grow the mesh if more cores were requested than tiles exist.
    while (numCores > noc.meshWidth * noc.meshWidth)
        noc.meshWidth *= 2;
}

std::string
MachineConfig::describe() const
{
    char buf[1536];
    std::snprintf(buf, sizeof(buf),
        "Cores                %u OOO cores @ %.1f GHz\n"
        "  dispatch width     %u uops/cycle\n"
        "  reorder buffer     %u entries\n"
        "  reservation stn    %u entries, unified\n"
        "  load-store queue   %u load, %u store entries\n"
        "  branch predictor   TAGE-like (loop %.1f%%, data %.1f%% miss)"
        "%s\n"
        "  atomics            %s\n"
        "L1 data cache        %llu KB, %u-way, %u cycles\n"
        "L2 cache             %llu KB, %u-way, %u cycles\n"
        "L3 cache             %llu KB total, %llu KB/bank, %u-way,"
        " %u cycles\n"
        "NoC                  %ux%u mesh, %u bits/cycle/link,"
        " X-Y routing, %u cycles/hop\n"
        "Main memory          %u-channel, %u-cycle access,"
        " %.2f B/cycle/channel\n"
        "Minnow engine        %s\n"
        "  local queue        %u entries, %u-cycle access\n"
        "  load buffer        %u entries, %u-cycle wakeup\n"
        "  prefetch           %s, %u credits\n"
        "Attribution          %s, %u-cycle window",
        numCores, coreFreqHz / 1e9,
        core.dispatchWidth, core.robEntries, core.rsEntries,
        core.lqEntries, core.sqEntries,
        100.0 * core.loopMispredictRate,
        100.0 * core.dataMispredictRate,
        core.perfectBranches ? " [perfect]" : "",
        core.atomicFences ? "fenced (x86-TSO)" : "unfenced (ideal)",
        (unsigned long long)(l1d.sizeBytes / 1024), l1d.assoc,
        l1d.latency,
        (unsigned long long)(l2.sizeBytes / 1024), l2.assoc, l2.latency,
        (unsigned long long)(totalL3Bytes() / 1024),
        (unsigned long long)(l3Bank.sizeBytes / 1024), l3Bank.assoc,
        l3Bank.latency,
        noc.meshWidth, noc.meshWidth, noc.linkBits, noc.cyclesPerHop,
        dram.channels, dram.accessLatency,
        64.0 * 128.0 / dram.serviceFp128,
        minnow.enabled ? "enabled" : "disabled",
        minnow.localQueueEntries, minnow.localQueueLatency,
        minnow.loadBufferEntries, minnow.loadBufferWakeup,
        minnow.prefetchEnabled ? "worklist-directed" : "off",
        minnow.prefetchCredits,
        attribution ? "enabled" : "disabled", kAttributionWindow);
    return buf;
}

MachineConfig
paperMachine()
{
    MachineConfig m;
    // Defaults in the struct definitions are already Table 3.
    return m;
}

MachineConfig
scaledMachine()
{
    MachineConfig m;
    m.l1d.sizeBytes = 16 * 1024;
    m.l2.sizeBytes = 64 * 1024;
    m.l3Bank.sizeBytes = 32 * 1024;
    return m;
}

} // namespace minnow
