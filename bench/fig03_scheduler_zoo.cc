/**
 * @file
 * Fig. 3: runtime of various Galois scheduling policies normalized
 * to GraphMat (lower is better); improper policies time out on
 * ordering-sensitive workloads. LIFO models Carbon's fixed policy.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 0.5, 10);
    // Fig. 3 relies on timeouts: keep the event budget modest.
    args.maxEvents = opts.getUint("max-events", 80'000'000);
    opts.rejectUnused();

    banner("Fig. 3: scheduler zoo runtime normalized to GraphMat"
           " (lower is better), " +
               std::to_string(args.threads) + " threads",
           "high bars = timeouts; Carbon(LIFO) times out on"
           " sssp/bfs/cc/pr; several OBIM deltas time out too");

    TextTable table;
    table.header({"workload", "fifo", "lifo(carbon)", "strict",
                  "obim(fine)", "obim(tuned)", "obim(coarse)"});
    // Per workload: GraphMat (the normalizer), FIFO, LIFO, strict,
    // then OBIM with the finest, the tuned and a coarse bucket
    // interval.
    std::vector<std::string> names;
    std::vector<Point> points;
    for (const std::string &name : args.workloads) {
        if (name == "tc" || name == "bc")
            continue;
        names.push_back(name);
        for (harness::Config c :
             {harness::Config::Bsp, harness::Config::Fifo,
              harness::Config::Lifo, harness::Config::Strict,
              harness::Config::Obim, harness::Config::Obim,
              harness::Config::Obim})
            points.push_back({name, c, args.threads, args.machine});
        points[points.size() - 3].prepare = [](harness::Workload &w) {
            w.lgDelta = 0;
        };
        points.back().prepare = [](harness::Workload &w) {
            w.lgDelta += 6;
        };
    }
    auto results = runPoints(args, points);
    for (std::size_t k = 0; k < names.size(); ++k) {
        const harness::ExperimentResult *r = &results[7 * k];
        double norm = double(r[0].run.cycles);
        auto rel = [&](const harness::ExperimentResult &x) {
            if (x.run.timedOut)
                return std::string("TIMEOUT");
            return TextTable::num(double(x.run.cycles) / norm, 2);
        };
        table.row({names[k], rel(r[1]), rel(r[2]), rel(r[3]),
                   rel(r[4]), rel(r[5]), rel(r[6])});
    }
    table.print();
    std::printf("expected shape: tuned OBIM lowest on sssp by a"
                " wide margin; LIFO pathological on"
                " ordering-sensitive inputs; conservative"
                " (coarse) OBIM degrades gracefully.\n");
    return 0;
}
