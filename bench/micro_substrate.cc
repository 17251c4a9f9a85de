/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate
 * itself: event queue throughput, coroutine spawn/await, cache
 * lookup/fill, NoC traversal, DRAM booking, the OOO core per-op cost,
 * and the stats sampler and JSON export. These bound the simulator's
 * host-side performance (how many simulated memory ops per
 * wall-second the experiment harness can drive).
 */

#include <benchmark/benchmark.h>

#include <coroutine>
#include <queue>
#include <vector>

#include "cpu/ooo_core.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "runtime/machine.hh"
#include "runtime/task.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

using namespace minnow;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            eq.schedule(eq.now() + std::uint64_t(i % 7),
                        [](void *p) {
                            ++*static_cast<std::uint64_t *>(p);
                        },
                        &sink);
        }
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * The pre-timing-wheel EventQueue (a binary heap of 40-byte events),
 * kept here verbatim as an in-binary baseline so
 * scripts/bench_simspeed.py can report the wheel-vs-heap speedup
 * from a single process on the same host.
 */
class BaselineHeapEventQueue
{
  public:
    using Callback = void (*)(void *);

    Cycle now() const { return now_; }

    void
    schedule(Cycle when, Callback fn, void *arg)
    {
        heap_.push(Event{when, seq_++, nullptr, fn, arg});
    }

    void
    run()
    {
        while (!heap_.empty()) {
            Event ev = heap_.top();
            heap_.pop();
            now_ = ev.when;
            if (ev.coro)
                ev.coro.resume();
            else
                ev.fn(ev.arg);
        }
    }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        std::coroutine_handle<> coro;
        Callback fn;
        void *arg;

        bool
        operator>(const Event &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        heap_;
    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
};

/** Identical workload to BM_EventQueueScheduleRun, heap engine. */
void
BM_EventQueueBaselineHeap(benchmark::State &state)
{
    BaselineHeapEventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            eq.schedule(eq.now() + std::uint64_t(i % 7),
                        [](void *p) {
                            ++*static_cast<std::uint64_t *>(p);
                        },
                        &sink);
        }
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueBaselineHeap);

/**
 * Mixed near/far schedule: mostly short latencies with a trickle of
 * far-future timers (the watchdog/fault/DRAM-callback pattern),
 * exercising the wheel's overflow heap and its migration path.
 */
void
BM_EventQueueFarFutureMix(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 63; ++i) {
            eq.schedule(eq.now() + std::uint64_t(i % 120),
                        [](void *p) {
                            ++*static_cast<std::uint64_t *>(p);
                        },
                        &sink);
        }
        eq.schedule(eq.now() + 10000, // far: overflow path
                    [](void *p) {
                        ++*static_cast<std::uint64_t *>(p);
                    },
                    &sink);
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueFarFutureMix);

runtime::CoTask<std::uint64_t>
coChild(std::uint64_t v)
{
    co_return v + 1;
}

runtime::CoTask<std::uint64_t>
coSpawnAwait64(std::uint64_t v)
{
    for (int i = 0; i < 64; ++i)
        v = co_await coChild(v);
    co_return v;
}

/**
 * Coroutine frame churn: a root task spawns, awaits and destroys 64
 * child tasks in turn, the shape of a threadlet's memory accesses.
 * Items are child tasks; the root's own frame is amortised over 64.
 */
void
BM_CoTaskSpawnAwait(benchmark::State &state)
{
    std::uint64_t v = 0;
    for (auto _ : state) {
        runtime::CoTask<std::uint64_t> root = coSpawnAwait64(v);
        root.start();
        v = root.result();
    }
    benchmark::DoNotOptimize(v);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CoTaskSpawnAwait);

void
BM_CacheLookupHit(benchmark::State &state)
{
    mem::CacheArray cache(CacheParams{64 * 1024, 8, 4});
    mem::Eviction ev;
    for (Addr a = 0; a < 512; ++a)
        cache.fill(a, false, ev);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(a % 512));
        ++a;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupHit);

void
BM_MemorySystemAccess(benchmark::State &state)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = 8;
    mem::MemorySystem ms(cfg);
    Addr a = 0x100000;
    Cycle t = 0;
    for (auto _ : state) {
        mem::MemAccess req;
        req.addr = a;
        req.core = CoreId(a / 64 % 8);
        req.when = t;
        auto r = ms.access(req);
        benchmark::DoNotOptimize(r);
        a += 64;
        t += 2;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemorySystemAccess);

/**
 * MemorySystem::access on the full 64-core machine with mixed
 * traffic: 70% loads, 20% stores and 10% atomics from every core
 * over a shared pool of 2^16 lines (4 MiB), so L1/L2 hits, L3 hits,
 * DRAM misses, sharer invalidations and dirty interventions all
 * occur. Unlike BM_MemorySystemAccess (8 cores, whose arrays fit in
 * a host L2), the 64 cores' cache arrays and the directory here are
 * the size the galois/engine workloads touch.
 */
void
BM_MemorySystemAccess64(benchmark::State &state)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = 64;
    mem::MemorySystem ms(cfg);
    // Pre-drawn request stream: the loop times access(), not the RNG.
    constexpr std::size_t kReqs = 1 << 16;
    std::vector<mem::MemAccess> reqs(kReqs);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < kReqs; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::uint64_t r = x >> 16;
        mem::MemAccess &req = reqs[i];
        req.addr = 0x10000000 + (r & 0xFFFF) * 64;
        req.core = CoreId((r >> 16) & 63);
        std::uint64_t kind = (r >> 22) % 10;
        req.type = kind < 7   ? mem::AccessType::Load
                   : kind < 9 ? mem::AccessType::Store
                              : mem::AccessType::Atomic;
    }
    std::size_t i = 0;
    Cycle t = 0;
    for (auto _ : state) {
        mem::MemAccess req = reqs[i];
        req.when = t;
        auto r = ms.access(req);
        benchmark::DoNotOptimize(r);
        i = (i + 1) & (kReqs - 1);
        t += 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemorySystemAccess64);

void
BM_OooCoreLoad(benchmark::State &state)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = 2;
    mem::MemorySystem ms(cfg);
    cpu::OooCore core(0, cfg.core, &ms, 1);
    Addr a = 0x100000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core.load(a));
        a += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OooCoreLoad);

/**
 * One interval sample (StatsRegistry::recordSample) over the registry
 * of a 64-core machine: every core, cache and memory stat, formulas
 * included. Samples accumulate, so the iteration count is fixed to
 * bound the memory they hold.
 */
void
BM_StatsSample64(benchmark::State &state)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = 64;
    runtime::Machine m(cfg);
    Cycle now = 0;
    for (auto _ : state)
        m.stats.recordSample(now += 2000);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatsSample64)->Iterations(2000);

/**
 * StatsRegistry::toJson on a 64-core machine's registry holding 200
 * interval samples, the shape of a --stats-interval run's export.
 */
void
BM_StatsJsonExport(benchmark::State &state)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = 64;
    runtime::Machine m(cfg);
    for (Cycle c = 1; c <= 200; ++c)
        m.stats.recordSample(c * 2000);
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::string json = m.stats.toJson();
        bytes = json.size();
        benchmark::DoNotOptimize(json);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations() * bytes));
}
BENCHMARK(BM_StatsJsonExport);

} // anonymous namespace

BENCHMARK_MAIN();
