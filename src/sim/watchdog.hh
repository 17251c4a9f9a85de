/**
 * @file
 * Hang detection and structured post-mortem dumps.
 *
 * A hung simulation used to spin silently until the event budget ran
 * out; with fault injection in the tree a livelock is now a scenario
 * we deliberately provoke, so it must be diagnosable. The Watchdog
 * rides the EventQueue like the stats sampler does and samples a
 * small progress signature (instruction commits, WorkMonitor
 * pending/stealable movement, memory traffic). When the signature is
 * unchanged for N consecutive checks it dumps a structured
 * diagnostic — event-queue head, per-core pipeline state, monitor
 * accounting, and a full StatsRegistry snapshot (which carries the
 * per-engine queue/credit state and worklist counts) — then panics
 * with an actionable message.
 *
 * The same dump helper backs EventQueue budget exhaustion, so a
 * timed-out run and a hung run leave identical post-mortems.
 */

#ifndef MINNOW_SIM_WATCHDOG_HH
#define MINNOW_SIM_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <string>

#include "base/types.hh"

namespace minnow
{

namespace runtime
{
class Machine;
} // namespace runtime

/**
 * Emit a human-readable diagnostic to stderr and, when the machine's
 * diagnosticPath is set, write the "minnow-diag-1" document there:
 * reason, cycle, event-queue head, per-core pipeline state, monitor
 * accounting, and the machine's full "minnow-stats-1" registry
 * snapshot under "stats".
 */
void dumpDiagnostic(runtime::Machine &machine,
                    const std::string &reason);

/** Consecutive stale checks before the machine's watchdog trips. */
constexpr std::uint32_t kWatchdogStaleChecks = 4;

/** Periodic no-progress detector on the machine's event queue. */
class Watchdog
{
  public:
    /**
     * @param machine   Machine to monitor (not owned).
     * @param interval  Cycles between progress checks.
     * @param threshold Consecutive stale checks before tripping.
     */
    Watchdog(runtime::Machine *machine, Cycle interval,
             std::uint32_t threshold);

    /** Schedule the first check; idempotent. */
    void arm();

    /**
     * Test hook: replace the dump-and-panic trip action. The
     * callback receives the reason string.
     */
    void setOnStall(std::function<void(const std::string &)> fn)
    {
        onStall_ = std::move(fn);
    }

    bool tripped() const { return tripped_; }
    std::uint64_t checksRun() const { return checksRun_; }

  private:
    /** What must move for the run to count as making progress. */
    struct Snapshot
    {
        std::uint64_t uops = 0;
        std::uint64_t pending = 0;
        std::uint64_t stealable = 0;
        std::uint64_t memTraffic = 0;

        bool operator==(const Snapshot &) const = default;
    };

    static void checkEvent(void *arg);
    void check();
    Snapshot sample() const;

    runtime::Machine *machine_;
    Cycle interval_;
    std::uint32_t threshold_;
    Snapshot last_;
    std::uint32_t stale_ = 0;
    std::uint64_t checksRun_ = 0;
    bool armed_ = false;
    bool tripped_ = false;
    std::function<void(const std::string &)> onStall_;
};

} // namespace minnow

#endif // MINNOW_SIM_WATCHDOG_HH
