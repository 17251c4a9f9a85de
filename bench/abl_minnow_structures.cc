/**
 * @file
 * Ablations beyond the paper: sensitivity of Minnow performance to
 * its structure sizes — local queue depth, load buffer entries, and
 * the OBIM bucket interval of the offloaded global worklist — on a
 * priority-sensitive workload (SSSP) and a throughput one (BFS).
 * These quantify the design choices DESIGN.md calls out.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 1.0, 16);
    std::string workload = opts.getString("workload", "sssp");
    opts.rejectUnused();

    banner("Ablation: Minnow structure sizing (" + workload + ", " +
               std::to_string(args.threads) + " threads)",
           "");

    const std::uint32_t localQs[] = {8, 16, 32, 64, 128};
    const std::uint32_t loadBufs[] = {4, 8, 16, 32, 64};
    const std::uint32_t lgDeltas[] = {0, 2, 4, 6, 8, 12};
    const Point base{workload, harness::Config::MinnowPf, args.threads,
                     args.machine};
    std::vector<Point> points;
    for (std::uint32_t lq : localQs) {
        Point p = base;
        p.machine.minnow.localQueueEntries = lq;
        p.machine.minnow.refillThreshold = std::max(2u, lq / 4);
        points.push_back(p);
    }
    for (std::uint32_t lb : loadBufs) {
        Point p = base;
        p.machine.minnow.loadBufferEntries = lb;
        points.push_back(p);
    }
    for (std::uint32_t lg : lgDeltas) {
        Point p = base;
        p.prepare = [lg](harness::Workload &w) { w.lgDelta = lg; };
        points.push_back(p);
    }
    auto results = runPoints(args, points);
    const harness::ExperimentResult *r = results.data();

    {
        std::printf("\n--- local queue depth ---\n");
        TextTable t;
        t.header({"localQ", "cycles", "deq-blocks", "spills"});
        for (std::uint32_t lq : localQs) {
            t.row({std::to_string(lq), cyclesOrTimeout(r->run),
                   TextTable::count(r->engines.dequeueBlocks),
                   TextTable::count(r->engines.spillsSpawned)});
            ++r;
        }
        t.print();
    }
    {
        std::printf("\n--- load buffer entries ---\n");
        TextTable t;
        t.header({"loadBuf", "cycles", "lb-stalls", "mpki"});
        for (std::uint32_t lb : loadBufs) {
            t.row({std::to_string(lb), cyclesOrTimeout(r->run),
                   TextTable::count(r->engines.loadBufStalls),
                   TextTable::num(r->run.l2Mpki, 1)});
            ++r;
        }
        t.print();
    }
    {
        std::printf("\n--- offloaded OBIM bucket interval ---\n");
        TextTable t;
        t.header({"lgDelta", "cycles", "tasks(work-eff)"});
        for (std::uint32_t lg : lgDeltas) {
            t.row({std::to_string(lg), cyclesOrTimeout(r->run),
                   TextTable::count(r->run.tasks)});
            ++r;
        }
        t.print();
    }
    return 0;
}
