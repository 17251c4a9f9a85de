#include "sim/watchdog.hh"

#include <cstdio>

#include "base/json.hh"
#include "base/logging.hh"
#include "cpu/ooo_core.hh"
#include "runtime/machine.hh"
#include "sim/timeline.hh"

namespace minnow
{

namespace
{

const char *
phaseName(cpu::Phase p)
{
    switch (p) {
      case cpu::Phase::App:
        return "app";
      case cpu::Phase::Worklist:
        return "worklist";
      case cpu::Phase::Idle:
        return "idle";
    }
    return "?";
}

/**
 * The "minnow-diag-1" document into @p sink; the stats member streams
 * through it with no copy of the registry's text.
 */
void
writeDiagnostic(json::ChunkSink &sink, runtime::Machine &m,
                const std::string &reason)
{
    std::string &out = sink.buf;
    out += "{\"schema\":\"minnow-diag-1\",\"reason\":\"";
    json::appendEscaped(out, reason);
    out += "\",\"cycle\":" + std::to_string(m.eq.now());
    out += ",\"eventQueue\":{\"pending\":" +
           std::to_string(m.eq.pending()) +
           ",\"head\":" + std::to_string(m.eq.headTime()) + "}";
    out += ",\"monitor\":{\"pending\":" +
           std::to_string(m.monitor.pending()) +
           ",\"stealable\":" + std::to_string(m.monitor.stealable()) +
           ",\"idleWorkers\":" +
           std::to_string(m.monitor.idleWorkers()) +
           ",\"terminated\":" +
           (m.monitor.terminated() ? "true" : "false") + "}";
    out += ",\"cores\":[";
    for (std::size_t i = 0; i < m.cores.size(); ++i) {
        const cpu::OooCore &core = *m.cores[i];
        if (i)
            out += ",";
        out += "{\"id\":" + std::to_string(i);
        out += ",\"phase\":\"";
        out += phaseName(core.phase());
        out += "\",\"frontier\":" + std::to_string(core.frontier());
        out += ",\"drain\":" + std::to_string(core.drain());
        out += ",\"uops\":" + std::to_string(core.stats().uops) + "}";
    }
    out += "],\"stats\":";
    m.stats.writeJson(sink);
    sink.buf += '}';
}

} // anonymous namespace

void
dumpDiagnostic(runtime::Machine &machine, const std::string &reason)
{
    runtime::Machine &m = machine;
    if (m.timeline)
        m.timeline->instant(m.timeline->simTrack(),
                            timeline::Name::Diagnostic, m.eq.now());
    std::fprintf(stderr, "=== minnow diagnostic: %s ===\n",
                 reason.c_str());
    std::fprintf(stderr,
                 "cycle %llu; event queue: %zu pending, head at"
                 " %llu\n",
                 (unsigned long long)m.eq.now(), m.eq.pending(),
                 (unsigned long long)m.eq.headTime());
    std::fprintf(stderr,
                 "monitor: pending=%llu stealable=%llu"
                 " idleWorkers=%u terminated=%d\n",
                 (unsigned long long)m.monitor.pending(),
                 (unsigned long long)m.monitor.stealable(),
                 m.monitor.idleWorkers(), m.monitor.terminated());
    for (std::size_t i = 0; i < m.cores.size(); ++i) {
        const cpu::OooCore &core = *m.cores[i];
        std::fprintf(stderr,
                     "core %2zu: phase=%-8s frontier=%llu"
                     " drain=%llu uops=%llu\n",
                     i, phaseName(core.phase()),
                     (unsigned long long)core.frontier(),
                     (unsigned long long)core.drain(),
                     (unsigned long long)core.stats().uops);
    }
    if (!m.cfg.diagnosticPath.empty()) {
        auto write = [&](json::ChunkSink &sink) {
            writeDiagnostic(sink, m, reason);
            sink.buf += '\n';
        };
        if (json::writeFile(m.cfg.diagnosticPath, write)) {
            std::fprintf(stderr, "diagnostic JSON written to %s\n",
                         m.cfg.diagnosticPath.c_str());
        } else {
            std::fprintf(stderr,
                         "cannot write diagnostic JSON to %s\n",
                         m.cfg.diagnosticPath.c_str());
        }
    }
    std::fflush(stderr);
}

Watchdog::Watchdog(runtime::Machine *machine, Cycle interval,
                   std::uint32_t threshold)
    : machine_(machine), interval_(interval), threshold_(threshold)
{
    panic_if(interval_ == 0, "watchdog interval must be nonzero");
    panic_if(threshold_ == 0, "watchdog threshold must be nonzero");
}

void
Watchdog::arm()
{
    if (armed_)
        return;
    armed_ = true;
    last_ = sample();
    machine_->eq.daemonScheduled();
    machine_->eq.schedule(machine_->eq.now() + interval_,
                          &Watchdog::checkEvent, this);
}

void
Watchdog::checkEvent(void *arg)
{
    auto *wd = static_cast<Watchdog *>(arg);
    wd->machine_->eq.daemonFired();
    wd->check();
}

Watchdog::Snapshot
Watchdog::sample() const
{
    runtime::Machine &m = *machine_;
    mem::MemStats mt = m.memory.totals();
    Snapshot s;
    s.uops = m.totalUops();
    s.pending = m.monitor.pending();
    s.stealable = m.monitor.stealable();
    s.memTraffic = mt.loads + mt.stores + mt.atomics +
                   mt.engineAccesses;
    return s;
}

void
Watchdog::check()
{
    checksRun_ += 1;
    runtime::Machine &m = *machine_;
    // A finished run stops the heartbeat: the monitor declared
    // termination, so pending==0 forever is expected, not a hang.
    if (m.monitor.terminated())
        return;
    Snapshot cur = sample();
    if (cur == last_) {
        stale_ += 1;
        if (stale_ >= threshold_) {
            tripped_ = true;
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "no forward progress for %llu cycles"
                          " (uops=%llu pending=%llu stealable=%llu"
                          " memTraffic=%llu)",
                          (unsigned long long)(Cycle(stale_) *
                                               interval_),
                          (unsigned long long)cur.uops,
                          (unsigned long long)cur.pending,
                          (unsigned long long)cur.stealable,
                          (unsigned long long)cur.memTraffic);
            std::string reason(buf);
            if (m.timeline)
                m.timeline->instant(m.timeline->simTrack(),
                                    timeline::Name::WatchdogTrip,
                                    m.eq.now());
            if (onStall_) {
                onStall_(reason);
                return;
            }
            dumpDiagnostic(m, reason);
            panic("watchdog: %s", reason.c_str());
        }
    } else {
        stale_ = 0;
        last_ = cur;
    }
    // Re-arm only while non-daemon work remains, like the samplers:
    // the watchdog must not keep a drained queue running, and
    // against empty() alone it and a periodic sampler would keep
    // each other alive forever.
    if (!m.eq.quiescent()) {
        m.eq.daemonScheduled();
        m.eq.schedule(m.eq.now() + interval_, &Watchdog::checkEvent,
                      this);
    }
}

} // namespace minnow
