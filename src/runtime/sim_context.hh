/**
 * @file
 * Per-worker view of the simulated machine.
 *
 * Application operators and worklist implementations are coroutines
 * that receive a SimContext and describe their execution as a stream
 * of micro-operations. Non-blocking calls (load/store/compute/branch)
 * account timing and return immediately with completion cycles;
 * blocking calls (atomic read-modify-writes, sync points) are
 * awaitables that suspend the coroutine and resume it at the right
 * simulated cycle, which is what serializes cross-core access to
 * shared functional state.
 *
 * Functional data lives in host containers; the simulated address of
 * each structure is decoupled from its host layout (DESIGN.md §5.1),
 * which is how the paper's 32 B node / 16 B edge memory layout is
 * modelled regardless of host representation.
 */

#ifndef MINNOW_RUNTIME_SIM_CONTEXT_HH
#define MINNOW_RUNTIME_SIM_CONTEXT_HH

#include <algorithm>
#include <coroutine>

#include "cpu/ooo_core.hh"
#include "runtime/machine.hh"

namespace minnow::minnowengine
{
class MinnowEngine;
}

namespace minnow::runtime
{

/** One worker thread's handle onto the machine. */
class SimContext
{
  public:
    SimContext(Machine *machine, CoreId core)
        : machine_(machine),
          core_(machine->cores[core].get()),
          id_(core)
    {
    }

    CoreId id() const { return id_; }
    Machine &machine() { return *machine_; }
    cpu::OooCore &core() { return *core_; }

    EventQueue &eq() { return machine_->eq; }
    WorkMonitor &monitor() { return machine_->monitor; }

    /**
     * Serial-baseline mode: atomicOrRelaxed() degrades to a plain
     * load+store (the paper's serial baseline is "Galois with atomics
     * removed").
     */
    bool serialMode = false;

    /** Minnow engine paired with this core (null without Minnow). */
    minnowengine::MinnowEngine *engine = nullptr;

    // ---- Non-blocking timed operations ----

    /** Issue a load; returns the value-ready cycle. */
    Cycle
    load(Addr addr, Cycle dep = 0, const cpu::LoadInfo &info = {})
    {
        return core_->load(addr, dep, info);
    }

    /** First-touch ("delinquent") load of a node/edge structure. */
    Cycle
    loadDelinquent(Addr addr, Cycle dep = 0, std::uint16_t site = 0,
                   std::uint64_t value = 0, bool hasValue = false)
    {
        cpu::LoadInfo info;
        info.site = site;
        info.value = value;
        info.hasValue = hasValue;
        info.delinquent = true;
        return core_->load(addr, dep, info);
    }

    Cycle store(Addr addr, Cycle dep = 0)
    {
        return core_->store(addr, dep);
    }

    void compute(std::uint32_t n, Cycle dep = 0)
    {
        core_->compute(n, dep);
    }

    void cheapLoads(std::uint32_t n) { core_->cheapLoads(n); }

    Cycle branch(cpu::BranchKind kind, Cycle dep)
    {
        return core_->branch(kind, dep);
    }

    /** Frontend position of this worker's core. */
    Cycle now() const { return core_->frontier(); }

    // ---- Blocking (suspending) operations ----

    /**
     * Awaitable atomic RMW. The coroutine resumes exactly at the
     * completion cycle, at which point the caller performs its
     * functional read-modify-write on host data: because resumption
     * order across cores follows simulated time, those updates are
     * linearized. In serialMode the fence/RMW cost degrades to a
     * load + store.
     */
    auto
    atomicAccess(Addr addr, Cycle dep = 0)
    {
        struct Awaiter
        {
            SimContext *ctx;
            Addr addr;
            Cycle dep;
            Cycle done = 0;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                if (ctx->serialMode) {
                    Cycle v = ctx->core_->load(addr, dep);
                    ctx->core_->store(addr, v);
                    done = v;
                } else {
                    done = ctx->core_->atomic(addr, dep);
                }
                // Without fences the completion can trail global
                // time (the frontend is not dragged forward);
                // resuming "now" is then the right semantics.
                ctx->eq().schedule(std::max(done, ctx->eq().now()),
                                   h);
            }

            Cycle await_resume() const { return done; }
        };
        return Awaiter{this, addr, dep};
    }

    /**
     * Quantum sync: suspend until global time catches up whenever
     * this core has run more than cfg.syncQuantum cycles ahead.
     * Bounds functional skew between cores.
     */
    auto
    sync()
    {
        struct Awaiter
        {
            SimContext *ctx;

            bool
            await_ready() const
            {
                return ctx->core_->frontier() <=
                       ctx->eq().now() + ctx->machine_->cfg.syncQuantum;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ctx->eq().schedule(ctx->core_->frontier(), h);
            }

            void await_resume() const {}
        };
        return Awaiter{this};
    }

    /** Suspend until the given absolute cycle (>= now). */
    auto
    waitUntil(Cycle when)
    {
        struct Awaiter
        {
            SimContext *ctx;
            Cycle when;

            bool
            await_ready() const
            {
                return when <= ctx->eq().now();
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ctx->eq().schedule(when, h);
            }

            void await_resume() const {}
        };
        return Awaiter{this, when};
    }

  private:
    Machine *machine_;
    cpu::OooCore *core_;
    CoreId id_;
};

/**
 * RAII phase switch for cycle attribution: worklist code runs under
 * Phase::Worklist and restores the caller's phase on scope exit
 * (coroutine frames destroy locals at co_return, so this is safe in
 * coroutines too).
 */
class PhaseGuard
{
  public:
    PhaseGuard(SimContext &ctx, cpu::Phase p)
        : core_(ctx.core()), prev_(core_.phase())
    {
        core_.setPhase(p);
    }

    ~PhaseGuard() { core_.setPhase(prev_); }

    PhaseGuard(const PhaseGuard &) = delete;
    PhaseGuard &operator=(const PhaseGuard &) = delete;

  private:
    cpu::OooCore &core_;
    cpu::Phase prev_;
};

} // namespace minnow::runtime

#endif // MINNOW_RUNTIME_SIM_CONTEXT_HH
