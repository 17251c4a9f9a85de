/**
 * @file
 * The simulated machine: event queue, memory hierarchy, cores, the
 * simulated-address allocator and the global work monitor, bundled
 * with their configuration.
 *
 * Minnow engines are attached by the minnow module (see
 * minnow/minnow_system.hh); the Machine itself is scheduler-agnostic.
 */

#ifndef MINNOW_RUNTIME_MACHINE_HH
#define MINNOW_RUNTIME_MACHINE_HH

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/sim_alloc.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "cpu/ooo_core.hh"
#include "mem/attribution.hh"
#include "mem/memory_system.hh"
#include "runtime/task.hh"
#include "runtime/task_probe.hh"
#include "runtime/work_monitor.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/hostprof.hh"
#include "sim/timeline.hh"
#include "sim/watchdog.hh"

namespace minnow::runtime
{

/** Owns all hardware models for one simulation. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config,
                     std::uint64_t seed = 1)
        : cfg(config),
          memory(config),
          monitor(&eq, config.numCores)
    {
        cfg.validate();
        trace::setCycleSource(&eq.nowRef());
        if (!cfg.timelinePath.empty()) {
            timeline = std::make_unique<::minnow::timeline::Timeline>(
                cfg.timelineBufferCap,
                ::minnow::timeline::parseTracks(cfg.timelineTracks));
            timeline->bindClock(&eq.nowRef());
            timeline->registerCoreTracks(cfg.numCores);
        }
        cores.reserve(cfg.numCores);
        for (CoreId i = 0; i < cfg.numCores; ++i) {
            cores.emplace_back(std::make_unique<cpu::OooCore>(
                i, cfg.core, &memory, seed));
        }
        registerStats();
        if (cfg.attribution) {
            attribution = std::make_unique<mem::Attribution>(
                stats, timeline.get(), cfg.numCores,
                cfg.attributionWindow);
            attribution->bindClock(&eq.nowRef());
            memory.setAttribution(attribution.get());
        }
        tasks = std::make_unique<TaskProbe>(
            stats, &eq.nowRef(), timeline.get(), attribution.get());
        if (timeline) {
            timeline->registerStats(stats);
            for (CoreId i = 0; i < cfg.numCores; ++i) {
                cores[i]->bindTimeline(
                    timeline.get(), timeline->corePhaseTrack(i));
            }
            using ::minnow::timeline::Cat;
            // Windowed MPKI: misses-per-kilo-uop over each sampling
            // interval (the Fig. 18-20 dynamics), not the cumulative
            // average the stats groups report.
            timeline->addCounterProvider(
                Cat::Mem, "mem.l2MpkiWindow", this,
                [this, lastMiss = 0.0, lastUops = 0.0,
                 primed = false]() mutable {
                    double miss =
                        double(memory.totals().l2DemandMisses);
                    double uops = double(totalUops());
                    double dk = (uops - lastUops) / 1000.0;
                    double mpki =
                        dk > 0 ? (miss - lastMiss) / dk : 0.0;
                    // The first poll's window starts at cycle 0 and
                    // spans graph build + warmup, understating MPKI;
                    // prime the baselines and emit nothing (NaN)
                    // until one complete window has elapsed.
                    bool first = !primed;
                    primed = true;
                    lastMiss = miss;
                    lastUops = uops;
                    return first ? std::nan("") : mpki;
                });
            timeline->addCounterProvider(
                Cat::Mem, "mem.prefetchLinesTracked", this, [this] {
                    return double(memory.prefetchLinesTracked());
                });
            if (cfg.timelineInterval)
                timeline->startSampling(eq, cfg.timelineInterval);
        }
        if (cfg.statsSampleInterval)
            stats.startSampling(eq, cfg.statsSampleInterval);
        if (!cfg.faultSpec.empty()) {
            faults = std::make_unique<FaultInjector>(cfg.faultSpec,
                                                     cfg.faultSeed);
            faults->bindClock(&eq.nowRef());
            faults->bindTimeline(timeline.get());
            faults->registerStats(stats);
            memory.setFaultInjector(faults.get());
        }
        if (cfg.watchdogInterval) {
            watchdog = std::make_unique<Watchdog>(
                this, cfg.watchdogInterval, cfg.watchdogChecks);
            watchdog->arm();
        }
        if (cfg.hostProfile) {
            hostprof = std::make_unique<HostProfiler>();
            hostprof->registerStats(stats);
            eq.setHostProfiler(hostprof.get());
            hostprof->activate();
        }
        // A timed-out run leaves the same post-mortem as a hung one.
        eq.setDiagnosticHook([this](const char *reason) {
            dumpDiagnostic(*this, reason);
        });
        // Thread-scoped: with --host-par, a panic in another point
        // must not serialize this registry while it simulates.
        panicHookId_ = addPanicHook(&Machine::panicHook, this,
                                    HookScope::Thread);
    }

    ~Machine()
    {
        removePanicHook(panicHookId_);
        writeTimeline();
        // The run's coroutines are gone; give their cached frames
        // back so the next point on this thread starts from the heap.
        detail::FramePool::trim();
    }

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Write the --timeline file unless it already holds the whole
     * trace. The run driver calls this before it snapshots the stats
     * JSON, so the export never overlaps the stats string, and a
     * Machine that runs twice rewrites the file to cover both runs.
     * The destructor calls it too: the fallback for a run that never
     * reached the driver's snapshot, or whose teardown recorded more
     * (a threadlet still suspended closes its span when destroyed).
     */
    void
    writeTimeline()
    {
        if (!timeline || timeline->unchangedSinceWrite())
            return;
        if (!timeline->writeFile(cfg.timelinePath)) {
            warn("cannot write --timeline file %s",
                 cfg.timelinePath.c_str());
        }
    }

    /** Latest drain time across all cores = run makespan. */
    Cycle
    makespan() const
    {
        Cycle worst = 0;
        for (const auto &c : cores)
            worst = std::max(worst, c->drain());
        return worst;
    }

    /** Sum of retired micro-ops across cores. */
    std::uint64_t
    totalUops() const
    {
        std::uint64_t n = 0;
        for (const auto &c : cores)
            n += c->stats().uops;
        return n;
    }

    // -----------------------------------------------------------
    // Checkpoint/restore (DESIGN.md section 5i).
    // -----------------------------------------------------------

    /**
     * Register a run-scoped checkpoint section (worklist, app,
     * graph, resume meta — components the Machine does not own).
     * Sections are emitted in registration order; re-registering a
     * name replaces the previous hook.
     */
    void
    addCkptHook(const std::string &name,
                std::function<void(ckpt::Ckpt &)> fn)
    {
        removeCkptHook(name);
        ckptHooks_.emplace_back(name, std::move(fn));
    }

    void
    removeCkptHook(const std::string &name)
    {
        std::erase_if(ckptHooks_,
                      [&](const auto &h) { return h.first == name; });
    }

    /**
     * Everything that pins a checkpoint to one machine build: the
     * hardware description, the model-visible knobs describe() (the
     * Table 3 printout) leaves out, and the fault spec/seed. A
     * checkpoint taken under a different fingerprint is rejected
     * (the harness then degrades to cold start).
     */
    std::string
    configFingerprint() const
    {
        const MinnowParams &mn = cfg.minnow;
        return cfg.describe() +
               "\ndequeueBatch=" + std::to_string(mn.dequeueBatch) +
               " specSlot=" + std::to_string(mn.specSlot) +
               " coresPerEngine=" +
               std::to_string(mn.coresPerEngine) +
               " workSharing=" + std::to_string(mn.workSharing) +
               " prefetcher=" + std::to_string(int(cfg.prefetcher)) +
               "\nfaults=" + cfg.faultSpec +
               " faultSeed=" + std::to_string(cfg.faultSeed);
    }

    /** Serialize every component into @p w, one section each. */
    void
    checkpointSections(ckpt::Writer &w) const
    {
        {
            std::vector<std::uint8_t> buf;
            ckpt::Ckpt ck(buf);
            ck.io(configFingerprint());
            w.add("config", std::move(buf));
        }
        w.add("alloc", ckpt::serialize(alloc));
        w.add("eq", ckpt::serialize(eq));
        w.add("monitor", ckpt::serialize(monitor));
        w.add("mem", ckpt::serialize(memory));
        for (CoreId i = 0; i < cfg.numCores; ++i) {
            w.add("core" + std::to_string(i),
                  ckpt::serialize(*cores[i]));
        }
        if (faults)
            w.add("faults", ckpt::serialize(*faults));
        w.add("stats", ckpt::serialize(stats));
        if (attribution)
            w.add("attribution", ckpt::serialize(*attribution));
        for (const auto &[name, fn] : ckptHooks_) {
            std::vector<std::uint8_t> buf;
            ckpt::Ckpt ck(buf);
            fn(ck);
            w.add(name, std::move(buf));
        }
    }

    /**
     * Write a checkpoint of the current state to @p path (atomic:
     * temp file + rename). @return "" on success, else a one-line
     * error description.
     */
    std::string
    save(const std::string &path) const
    {
        ckpt::Writer w;
        checkpointSections(w);
        return w.writeFile(path);
    }

    /**
     * Open @p path into @p r and verify it belongs to this machine:
     * container magic/version/CRCs (Reader::openFile) plus the
     * config fingerprint. On success the harness reads the anchor
     * from the meta section of @p r, replays to it and
     * witness-validates every section with validateAgainst().
     * @return "" or a diagnostic.
     */
    std::string
    restore(const std::string &path, ckpt::Reader &r)
    {
        std::string err = r.openFile(path);
        if (!err.empty())
            return err;
        const ckpt::Section *cs = r.find("config");
        if (!cs)
            return "checkpoint has no config section";
        ckpt::Decoder d(cs->bytes.data(), cs->bytes.size());
        std::string fp;
        d.read(fp);
        if (!d.ok())
            return "checkpoint config section is malformed: " +
                   d.error();
        if (fp != configFingerprint()) {
            return "checkpoint was taken under a different machine"
                   " configuration";
        }
        return "";
    }

    /**
     * Witness validation: re-serialize the live state and compare
     * byte-for-byte against the sections in @p r. @return the names
     * of mismatched or missing sections (empty = state identical).
     */
    std::vector<std::string>
    validateAgainst(const ckpt::Reader &r) const
    {
        ckpt::Writer w;
        checkpointSections(w);
        std::vector<std::string> bad;
        for (const ckpt::Section &s : w.sections()) {
            const ckpt::Section *o = r.find(s.name);
            if (!o)
                bad.push_back(s.name + " (missing)");
            else if (o->bytes != s.bytes)
                bad.push_back(s.name);
        }
        return bad;
    }

    MachineConfig cfg;
    EventQueue eq;
    SimAlloc alloc;

    /**
     * The machine's stats tree. Groups follow the naming scheme in
     * DESIGN.md: "sim", "core<N>", "l2_<N>", "mem", "tasks", and —
     * added by their owners — "minnow<N>", "worklist" and "bsp".
     * Declared before every component that registers a group
     * (memory, timeline, tasks, cores, faults, hostprof):
     * registrants remove their groups in their destructors, so the
     * registry must still be alive when they die — i.e. be destroyed
     * last among them.
     */
    StatsRegistry stats;

    mem::MemorySystem memory;

    /**
     * Simulated-time trace sink; null when --timeline is unset (emit
     * sites guard on this pointer and pay nothing else). Its
     * destructor removes the "timeline" group, whose formulas
     * capture it.
     */
    std::unique_ptr<::minnow::timeline::Timeline> timeline;

    /**
     * Causal-attribution tracker (--attribution; DESIGN.md 5k); null
     * when off — emit sites guard on this pointer and pay nothing
     * else. Declared after `stats` and `timeline` (it registers the
     * "attribution" group and emits flow arrows into the timeline;
     * both must outlive it).
     */
    std::unique_ptr<mem::Attribution> attribution;

    /**
     * The per-task cycle probe and its "tasks" group (never null).
     * Declared after `timeline` and `attribution`, which it feeds.
     */
    std::unique_ptr<TaskProbe> tasks;

    std::vector<std::unique_ptr<cpu::OooCore>> cores;
    WorkMonitor monitor;

    /** Deterministic fault injection; null when --faults is unset. */
    std::unique_ptr<FaultInjector> faults;

    /** Hang detector; null when --watchdog is unset. */
    std::unique_ptr<Watchdog> watchdog;

    /** Host-speed self-profiler; null when --host-profile is unset. */
    std::unique_ptr<HostProfiler> hostprof;

  private:
    /**
     * panic() post-mortem: best-effort stats snapshot so invariant
     * failures leave inspectable state (cfg.panicStatsPath).
     */
    static void
    panicHook(void *arg)
    {
        auto *m = static_cast<Machine *>(arg);
        if (m->cfg.panicStatsPath.empty())
            return;
        if (m->stats.writeJsonFile(m->cfg.panicStatsPath)) {
            std::fprintf(stderr, "panic stats snapshot written to"
                         " %s\n", m->cfg.panicStatsPath.c_str());
        }
    }

    int panicHookId_ = 0;

    /** Run-scoped checkpoint sections, in registration order. */
    std::vector<
        std::pair<std::string, std::function<void(ckpt::Ckpt &)>>>
        ckptHooks_;

    /** Register sim/core/l2/mem groups over the built components. */
    void
    registerStats()
    {
        StatsGroup &sim = stats.group("sim");
        sim.formula("cycles", "run makespan over all cores",
                    [this] { return double(makespan()); });
        sim.formula("instructions", "retired uops over all cores",
                    [this] { return double(totalUops()); });
        sim.formula("ipc", "aggregate uops per makespan cycle",
                    [this] {
                        Cycle c = makespan();
                        return c ? double(totalUops()) / double(c)
                                 : 0.0;
                    });
        sim.formula("l2Mpki",
                    "aggregate L2 demand misses per kilo-uop",
                    [this] {
                        double ki = double(totalUops()) / 1000.0;
                        return ki ? double(memory.totals()
                                               .l2DemandMisses) /
                                        ki
                                  : 0.0;
                    });
        sim.scalar("cores", "simulated core count") =
            double(cfg.numCores);

        memory.registerStats(stats);
        for (CoreId i = 0; i < cfg.numCores; ++i) {
            cores[i]->registerStats(
                stats.group("core" + std::to_string(i)));
            StatsGroup &l2 =
                stats.group("l2_" + std::to_string(i));
            memory.registerCoreStats(l2, i);
            cpu::OooCore *core = cores[i].get();
            l2.formula("mpki",
                       "L2 demand misses per kilo-uop of this core",
                       [this, core, i] {
                           double ki =
                               double(core->stats().uops) / 1000.0;
                           return ki ? double(memory.stats(i)
                                                  .l2DemandMisses) /
                                           ki
                                     : 0.0;
                       });
        }
    }
};

} // namespace minnow::runtime

#endif // MINNOW_RUNTIME_MACHINE_HH
