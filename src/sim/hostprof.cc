#include "sim/hostprof.hh"

#include "base/host_clock.hh"
#include "base/logging.hh"

namespace minnow
{

thread_local HostProfiler *HostProfiler::active_ = nullptr;

std::uint64_t
HostProfiler::nowNs()
{
    return hostNowNs();
}

void
HostProfiler::activate()
{
    if (activated_)
        return;
    prev_ = active_;
    active_ = this;
    activated_ = true;
}

void
HostProfiler::deactivate()
{
    if (!activated_)
        return;
    if (active_ == this)
        active_ = prev_;
    prev_ = nullptr;
    activated_ = false;
}

void
HostProfiler::beginRun()
{
    runStart_ = nowNs();
    inRun_ = true;
    ++runs_;
}

void
HostProfiler::endRun()
{
    if (!inRun_)
        return;
    runNs_ += nowNs() - runStart_;
    inRun_ = false;
}

std::uint64_t
HostProfiler::wallNs() const
{
    return runNs_ + (inRun_ ? nowNs() - runStart_ : 0);
}

void
HostProfiler::enter(HostClass c)
{
    std::uint64_t t = nowNs();
    if (depth_ != 0)
        classNs_[stack_[depth_ - 1]] += t - sliceStart_;
    panic_if(depth_ >= kMaxDepth, "host-profiler scope stack"
             " overflow (a HostProfScope leaked across a"
             " suspension?)");
    stack_[depth_++] = std::uint8_t(c);
    ++classCalls_[std::size_t(c)];
    sliceStart_ = t;
}

void
HostProfiler::exit()
{
    panic_if(depth_ == 0, "host-profiler scope underflow");
    std::uint64_t t = nowNs();
    classNs_[stack_[--depth_]] += t - sliceStart_;
    sliceStart_ = t;
}

void
HostProfiler::registerStats(StatsRegistry &reg)
{
    statsClaim_ = StatsClaim(reg, kHostTimeGroup);
    StatsGroup &g = reg.group(kHostTimeGroup);
    g.formula("events", "events executed by the event queue",
              [this] { return double(events_); });
    g.formula("runs", "EventQueue::run() invocations",
              [this] { return double(runs_); });
    g.formula("wallNs", "host wall time spent inside run()",
              [this] { return double(wallNs()); });
    g.formula("eventsPerSec", "simulation speed in events/sec",
              [this] {
                  double ns = double(wallNs());
                  return ns > 0 ? double(events_) * 1e9 / ns : 0.0;
              });

    static const char *names[] = {"core", "memory", "engine",
                                  "worklist"};
    for (std::size_t c = 0;
         c < std::size_t(HostClass::kNumClasses); ++c) {
        std::string base = names[c];
        g.formula(base + "Ns",
                  "host ns attributed to the " + base +
                      " component class (exclusive)",
                  [this, c] { return double(classNs(HostClass(c))); });
        g.formula(base + "Calls",
                  "instrumented entries into the " + base +
                      " component class",
                  [this, c] {
                      return double(classCalls(HostClass(c)));
                  });
    }
    g.formula("otherNs",
              "run() wall time not attributed to any component"
              " class (scheduler, coroutine glue)",
              [this] {
                  double sum = 0;
                  for (std::size_t c = 0;
                       c < std::size_t(HostClass::kNumClasses);
                       ++c)
                      sum += double(classNs(HostClass(c)));
                  double w = double(wallNs());
                  return w > sum ? w - sum : 0.0;
              });

    g.formula("occupancySamples",
              "queue-occupancy samples taken (every 64th event)",
              [this] { return double(occupancy_.total()); });
    g.formula("occupancyMean", "mean pending-event count",
              [this] { return occupancy_.mean(); });
    g.formula("occupancyP50", "median pending-event count",
              [this] { return double(occupancy_.percentile(0.50)); });
    g.formula("occupancyP99", "p99 pending-event count",
              [this] { return double(occupancy_.percentile(0.99)); });
}

} // namespace minnow
