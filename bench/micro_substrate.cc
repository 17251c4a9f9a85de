/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate
 * itself: event queue throughput, coroutine spawn/await, cache
 * lookup/fill, NoC traversal, DRAM booking, the OOO core per-op cost,
 * the stats sampler and JSON export, and input graph set-up (the
 * CSR builder and the Zipf sampler). These bound the simulator's
 * host-side performance (how many simulated memory ops per
 * wall-second the experiment harness can drive). perfbench reads the
 * event-queue, cache, memory-system and core benchmarks as its
 * per-layer metrics; no test times them.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "base/rng.hh"
#include "cpu/ooo_core.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
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
 * included. Samples accumulate in the registry's spool file (about
 * 41 KB each), so the iteration count is fixed to bound its size.
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

/**
 * GraphBuilder::build on the g500 input (RMAT scale 14, edge factor
 * 8), self-loops removed, symmetrized and deduplicated as rmatGraph
 * does. The input is every arc of rmatGraph(14, 8, 1), both
 * directions of each edge, so symmetrizing doubles each arc and
 * dedup drops half of what it counts.
 */
void
BM_GraphBuildRmat14(benchmark::State &state)
{
    graph::CsrGraph g = graph::rmatGraph(14, 8, 1);
    std::vector<graph::RawEdge> edges;
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        for (EdgeId e = g.edgeBegin(u); e < g.edgeEnd(u); ++e)
            edges.push_back({u, g.edgeDst(e), g.edgeWeight(e)});
    }
    // Row-major input would leave each row presorted; shuffle it.
    Rng rng(7);
    for (std::size_t i = edges.size(); i > 1; --i)
        std::swap(edges[i - 1], edges[rng.below(i)]);
    for (auto _ : state) {
        graph::GraphBuilder b(g.numNodes());
        b.reserve(edges.size());
        for (const graph::RawEdge &e : edges)
            b.addEdge(e.src, e.dst, e.weight);
        graph::CsrGraph built =
            b.removeSelfLoops().symmetrize().dedup().build(true);
        benchmark::DoNotOptimize(built.numEdges());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations() *
                                         edges.size()));
}
BENCHMARK(BM_GraphBuildRmat14);

/** One Zipf(0.9) draw over 30000 values, the cc input's popularity
 *  sampler at scale 1. */
void
BM_ZipfSample(benchmark::State &state)
{
    graph::ZipfSampler zipf(30000, 0.9);
    Rng rng(11);
    std::uint64_t sum = 0;
    for (auto _ : state)
        sum += zipf.sample(rng);
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

} // anonymous namespace

BENCHMARK_MAIN();
