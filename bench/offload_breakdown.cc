/**
 * @file
 * Engine offload round-trip breakdown: where the cycles of a
 * minnow_dequeue go (doorbell hop, waiting for work at the engine,
 * delivery hop), and how dequeue bundling (--dequeue-batch=k)
 * amortizes them. Sweeps k over --batch-list (default 1,2,4,8) on
 * one workload point and prints per-call component cycles plus the
 * worker-side popWait percentiles from the timeline task histogram.
 *
 * Expected shape: the doorbell and delivery legs are a fixed
 * 2 x localQueueLatency per engine call; bundling divides the call
 * count by up to k so per-pop round-trip cost and the popWait tail
 * (P95) drop as k grows, until queue depth can no longer fill a
 * bundle.
 *
 * --json=<path> additionally writes a compact machine-readable
 * summary (schema "minnow-offload-1") consumed by
 * scripts/bench_simspeed.py.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace minnow;
using namespace minnow::bench;

namespace
{

/** One table row: the engine round-trip split at one setting. */
struct Row
{
    std::uint32_t batch = 1;
    bool specSlot = false;
    bool timedOut = false;
    Cycle cycles = 0;
    std::uint64_t dequeues = 0;       //!< engine round-trips.
    std::uint64_t bundleTasks = 0;    //!< tasks via bundles.
    std::uint64_t specHits = 0;
    double doorbellPerCall = 0;
    double waitPerCall = 0;
    double deliverPerCall = 0;
    double popWaitP50 = 0;
    double popWaitP95 = 0;
    double popWaitP99 = 0;
};

/** One swept configuration: dequeue batch + spec-slot toggle. */
struct SweptConfig
{
    std::uint32_t batch = 1;
    bool specSlot = false;
};

/**
 * Parse --batch-list. A plain token ("4") sweeps that dequeue
 * batch; an "s" suffix ("4s") runs it with the core-side spec slot
 * enabled, so the sweep exercises the speculative-delivery fast
 * path too (specHits stays identically zero otherwise — that dead
 * column hid the slot being off in recorded sweeps). The default
 * sweep carries one spec point at the bundling knee.
 */
std::vector<SweptConfig>
batchesFromOpts(const Options &opts)
{
    std::vector<SweptConfig> out;
    for (std::string tok : opts.getList("batch-list", "1,2,4,8,4s")) {
        SweptConfig c;
        if (tok.back() == 's') {
            c.specSlot = true;
            tok.pop_back();
        }
        fatal_if(tok.empty(), "--batch-list token has no batch count");
        c.batch = std::uint32_t(std::stoul(tok));
        out.push_back(c);
    }
    fatal_if(out.empty(), "--batch-list parsed to nothing");
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    // Small default point: popWait contention needs more workers
    // than engine-side supply, not a big graph.
    BenchArgs args = parseArgs(opts, 0.05, 4);
    auto batches = batchesFromOpts(opts);
    std::string jsonPath = opts.getString("json", "");
    opts.rejectUnused();

    banner("Offload round-trip breakdown vs --dequeue-batch",
           "doorbell/delivery legs fixed at localQueueLatency each;"
           " bundling amortizes them per pop");

    const std::string wl =
        args.workloads.empty() ? "sssp" : args.workloads.front();

    std::vector<Point> points;
    for (const SweptConfig &sc : batches) {
        Point p{wl, harness::Config::MinnowPf, args.threads,
                args.machine};
        p.machine.minnow.dequeueBatch = sc.batch;
        if (sc.specSlot)
            p.machine.minnow.specSlot = true;
        // The popWait histogram lives in the timeline stats group;
        // route the (unused) trace to the null device and keep only
        // the task category so tracing cost stays negligible.
        p.machine.timelinePath = "/dev/null";
        p.machine.timelineTracks = "task";
        p.statsConfig = "minnow-pf(k=" + std::to_string(sc.batch) +
                        (sc.specSlot ? "s)" : ")");
        points.push_back(p);
    }
    auto results = runPoints(args, points);

    std::vector<Row> rows;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const harness::ExperimentResult &r = results[i];
        Row p;
        p.batch = batches[i].batch;
        p.specSlot = points[i].machine.minnow.specSlot;
        p.timedOut = r.run.timedOut;
        p.cycles = r.run.cycles;
        p.dequeues = r.engines.dequeues;
        p.bundleTasks = r.engines.dequeueBundleTasks;
        p.specHits = r.engines.specHits;
        double calls = double(std::max<std::uint64_t>(
            1, r.engines.dequeues));
        p.doorbellPerCall = double(r.engines.dqDoorbellCycles) / calls;
        p.waitPerCall = double(r.engines.dqWaitCycles) / calls;
        p.deliverPerCall = double(r.engines.dqDeliverCycles) / calls;
        p.popWaitP50 = r.run.report.get("timeline.popWaitP50");
        p.popWaitP95 = r.run.report.get("timeline.popWaitP95");
        p.popWaitP99 = r.run.report.get("timeline.popWaitP99");
        rows.push_back(p);
    }

    TextTable table;
    table.header({"batch", "specHits", "cycles", "engineCalls",
                  "bundleTasks", "doorbell/call", "wait/call",
                  "deliver/call", "popWaitP50", "popWaitP95",
                  "popWaitP99"});
    for (const Row &p : rows) {
        table.row({std::to_string(p.batch) +
                       (p.specSlot ? "s" : ""),
                   std::to_string(p.specHits),
                   p.timedOut ? "TIMEOUT"
                              : std::to_string(p.cycles),
                   std::to_string(p.dequeues),
                   std::to_string(p.bundleTasks),
                   TextTable::num(p.doorbellPerCall, 1),
                   TextTable::num(p.waitPerCall, 1),
                   TextTable::num(p.deliverPerCall, 1),
                   TextTable::num(p.popWaitP50, 0),
                   TextTable::num(p.popWaitP95, 0),
                   TextTable::num(p.popWaitP99, 0)});
    }
    table.print();

    if (!jsonPath.empty()) {
        std::FILE *f = std::fopen(jsonPath.c_str(), "w");
        fatal_if(!f, "cannot write %s", jsonPath.c_str());
        std::fprintf(f, "{\"schema\":\"minnow-offload-1\","
                        "\"workload\":\"%s\",\"threads\":%u,"
                        "\"points\":[", wl.c_str(), args.threads);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &p = rows[i];
            std::fprintf(
                f,
                "%s{\"batch\":%u,\"specSlot\":%s,"
                "\"timedOut\":%s,\"cycles\":%llu,"
                "\"engineCalls\":%llu,\"bundleTasks\":%llu,"
                "\"specHits\":%llu,\"doorbellPerCall\":%.3f,"
                "\"waitPerCall\":%.3f,\"deliverPerCall\":%.3f,"
                "\"popWaitP50\":%.0f,\"popWaitP95\":%.0f,"
                "\"popWaitP99\":%.0f}",
                i ? "," : "", p.batch,
                p.specSlot ? "true" : "false",
                p.timedOut ? "true" : "false",
                (unsigned long long)p.cycles,
                (unsigned long long)p.dequeues,
                (unsigned long long)p.bundleTasks,
                (unsigned long long)p.specHits, p.doorbellPerCall,
                p.waitPerCall, p.deliverPerCall, p.popWaitP50,
                p.popWaitP95, p.popWaitP99);
        }
        std::fprintf(f, "]}\n");
        std::fclose(f);
    }
    return 0;
}
