/**
 * @file
 * Table 2: benchmark configuration — algorithm, input, and the
 * cycle count of the single-threaded baseline run (the paper lists
 * billions of cycles on the full-size inputs; ours are scaled).
 */

#include <cstdio>

#include "bench_common.hh"

using namespace minnow;
using namespace minnow::bench;

namespace
{

const char *
algorithmOf(const std::string &w)
{
    if (w == "sssp") return "Single-Source Shortest Path (delta)";
    if (w == "bfs") return "Breadth-First Search";
    if (w == "g500") return "Breadth-First Search (Graph500)";
    if (w == "cc") return "Connected Components (min-label)";
    if (w == "pr") return "PageRank (push, data-driven)";
    if (w == "tc") return "Triangle Counting (node-iter-hashed)";
    if (w == "bc") return "Bipartite Coloring";
    return "?";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 1.0, 1);
    opts.rejectUnused();

    banner("Table 2: benchmark configuration",
           "paper single-thread runs: 1.7B-10.7B cycles on"
           " full-size inputs");

    TextTable table;
    table.header({"workload", "algorithm", "input",
                  "serial-cycles", "tasks", "verified"});
    std::vector<Point> points;
    std::vector<std::string> inputs(args.workloads.size());
    for (std::size_t k = 0; k < args.workloads.size(); ++k) {
        points.push_back({args.workloads[k],
                          harness::Config::SerialRelaxed, 1,
                          args.machine});
        points.back().prepare = [&input = inputs[k]](
                                    harness::Workload &w) {
            input = w.inputDesc;
        };
    }
    auto results = runPoints(args, points);
    for (std::size_t k = 0; k < points.size(); ++k) {
        const std::string &name = points[k].workload;
        const galois::RunResult &r = results[k].run;
        table.row({name, algorithmOf(name), inputs[k],
                   TextTable::count(r.cycles), TextTable::count(r.tasks),
                   r.verified ? "yes" : "NO"});
    }
    table.print();
    return 0;
}
