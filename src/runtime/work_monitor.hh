/**
 * @file
 * Global work accounting and distributed-termination detection.
 *
 * Every scheduler implementation (software worklists and Minnow
 * engines alike) reports queued-task deltas here. Two counts are
 * kept:
 *
 *  - pending:   every queued task anywhere, including tasks sitting
 *               in a Minnow engine's local queue. Termination is
 *               declared when all workers are idle and pending == 0 —
 *               the condition the paper's minnow_done instruction
 *               tests.
 *  - stealable: tasks a generic worker could obtain by popping or
 *               stealing (i.e. not bound to one core's local queue).
 *               Parked workers are only woken for stealable work;
 *               this avoids livelock when the only remaining tasks
 *               are private to other cores.
 *
 * Workers blocked inside a Minnow dequeue don't park here; their
 * engine resumes them. They still report idleness via enterIdle /
 * exitIdle so termination accounts for them, and engines subscribe a
 * termination callback to release blocked cores with a null task.
 */

#ifndef MINNOW_RUNTIME_WORK_MONITOR_HH
#define MINNOW_RUNTIME_WORK_MONITOR_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "base/ckpt.hh"
#include "base/logging.hh"
#include "base/trace.hh"
#include "base/types.hh"
#include "sim/event_queue.hh"

namespace minnow::runtime
{

/** Tracks pending work and idle workers; wakes or terminates them. */
class WorkMonitor
{
  public:
    WorkMonitor(EventQueue *eq, std::uint32_t workers)
        : eq_(eq), workers_(workers)
    {
    }

    /**
     * Publish @p n queued tasks. @p stealable tasks are reachable by
     * any worker; non-stealable ones live in a core-private queue.
     */
    void
    addWork(std::uint64_t n, bool stealable = true)
    {
        pending_ += n;
        if (stealable) {
            stealable_ += n;
            wake(n);
        }
    }

    /** @p n queued tasks were handed to workers for execution. */
    void
    takeWork(std::uint64_t n, bool stealable = true)
    {
        panic_if(pending_ < n, "work accounting went negative");
        pending_ -= n;
        if (stealable) {
            panic_if(stealable_ < n,
                     "stealable accounting went negative");
            stealable_ -= n;
        }
    }

    /**
     * Move @p n tasks between the stealable pool and a core-private
     * queue without touching the pending count (Minnow spill/fill).
     */
    void
    transferWork(std::uint64_t n, bool nowStealable)
    {
        if (nowStealable) {
            stealable_ += n;
            wake(n);
        } else {
            panic_if(stealable_ < n,
                     "stealable accounting went negative");
            stealable_ -= n;
        }
    }

    /**
     * A worker has nothing to do. May declare global termination
     * (when all workers are idle and nothing is pending anywhere).
     * Callers not using waitForWork() must pair with exitIdle().
     */
    void
    enterIdle()
    {
        idle_ += 1;
        panic_if(idle_ > workers_, "more idle workers than workers");
        if (idle_ == workers_ && pending_ == 0 && !terminated_) {
            DPRINTF(Monitor, "monitor",
                    "termination: %u workers idle, nothing pending",
                    idle_);
            terminated_ = true;
            for (auto &fn : terminationHooks_)
                fn();
            wakeAll();
        }
    }

    /** A previously idle worker got work again. */
    void
    exitIdle()
    {
        panic_if(idle_ == 0, "exitIdle with no idle workers");
        idle_ -= 1;
    }

    /** Engines register here to release cores blocked in dequeue. */
    void
    subscribeTermination(std::function<void()> fn)
    {
        terminationHooks_.push_back(std::move(fn));
    }

    std::uint64_t pending() const { return pending_; }
    std::uint64_t stealable() const { return stealable_; }
    bool terminated() const { return terminated_; }
    std::uint32_t idleWorkers() const { return idle_; }

    /**
     * Awaitable used by software-scheduled workers with nothing to
     * do. Yields true if more work may exist (retry your queues) and
     * false when global termination has been declared.
     */
    auto
    waitForWork()
    {
        struct Awaiter
        {
            WorkMonitor *mon;

            bool
            await_ready()
            {
                return mon->stealable_ > 0 || mon->terminated_;
            }

            bool
            await_suspend(std::coroutine_handle<> h)
            {
                mon->enterIdle();
                if (mon->terminated_)
                    return false; // resume immediately; it is over.
                mon->waiters_.push_back(h);
                return true;
            }

            bool
            await_resume()
            {
                return !mon->terminated_;
            }
        };
        return Awaiter{this};
    }

    /**
     * Awaitable used by Minnow engine fill daemons: parks until
     * stealable work appears (or termination) WITHOUT counting as an
     * idle worker. Yields false on termination.
     */
    auto
    waitForStealable()
    {
        struct Awaiter
        {
            WorkMonitor *mon;

            bool
            await_ready()
            {
                return mon->stealable_ > 0 || mon->terminated_;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                mon->engineWaiters_.push_back(h);
            }

            bool
            await_resume()
            {
                return !mon->terminated_;
            }
        };
        return Awaiter{this};
    }

    /**
     * Baton passing: a woken waiter that declines the work calls
     * this so another parked waiter gets the wakeup instead.
     */
    void rewake(std::uint64_t n = 1) { wake(n); }

    /**
     * Serialize the work/idle accounting. Parked coroutine handles
     * and termination hooks are rebuilt by the restored run itself.
     */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(workers_);
        ck.io(pending_);
        ck.io(stealable_);
        ck.io(idle_);
        ck.io(terminated_);
        ck.transient("eq_ waiters_ engineWaiters_ terminationHooks_");
    }

    /** Reset between runs. */
    void
    reset(std::uint32_t workers)
    {
        panic_if(!waiters_.empty() || !engineWaiters_.empty(),
                 "resetting with parked workers");
        workers_ = workers;
        pending_ = 0;
        stealable_ = 0;
        idle_ = 0;
        terminated_ = false;
        terminationHooks_.clear();
    }

  private:
    void
    wake(std::uint64_t n)
    {
        while (n > 0 && !waiters_.empty()) {
            std::coroutine_handle<> h = waiters_.front();
            waiters_.pop_front();
            exitIdle();
            eq_->schedule(eq_->now(), h);
            --n;
        }
        while (n > 0 && !engineWaiters_.empty()) {
            std::coroutine_handle<> h = engineWaiters_.front();
            engineWaiters_.pop_front();
            eq_->schedule(eq_->now(), h);
            --n;
        }
    }

    void
    wakeAll()
    {
        while (!waiters_.empty()) {
            std::coroutine_handle<> h = waiters_.front();
            waiters_.pop_front();
            exitIdle();
            eq_->schedule(eq_->now(), h);
        }
        while (!engineWaiters_.empty()) {
            std::coroutine_handle<> h = engineWaiters_.front();
            engineWaiters_.pop_front();
            eq_->schedule(eq_->now(), h);
        }
    }

    EventQueue *eq_;
    std::uint32_t workers_;
    std::uint64_t pending_ = 0;
    std::uint64_t stealable_ = 0;
    std::uint32_t idle_ = 0;
    bool terminated_ = false;
    std::deque<std::coroutine_handle<>> waiters_;
    std::deque<std::coroutine_handle<>> engineWaiters_;
    std::vector<std::function<void()>> terminationHooks_;
};

} // namespace minnow::runtime

#endif // MINNOW_RUNTIME_WORK_MONITOR_HH
