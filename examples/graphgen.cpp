/**
 * @file
 * Graph utility: generate any of the library's synthetic graph
 * classes, convert between formats (DIMACS .gr, edge list, binary
 * CSR), and print Table-1-style statistics. Useful for preparing
 * inputs once and replaying benches on them, and for exporting our
 * generated stand-ins for inspection by other tools.
 *
 *   graphgen --kind=grid --side=256 --out=road.gr
 *   graphgen --kind=rmat --rmat-scale=16 --out=g500.bin
 *   graphgen --in=snap.txt --symmetrize --out=graph.bin
 *   graphgen --in=road.gr --stats
 */

#include <cstdio>

#include "base/logging.hh"
#include "base/options.hh"
#include "base/table.hh"
#include "graph/generators.hh"
#include "graph/gstats.hh"
#include "graph/io.hh"

using namespace minnow;

namespace
{

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    std::string in = opts.getString("in", "");
    std::string out = opts.getString("out", "");
    std::string kind = opts.getString("kind", "");
    bool symmetrize = opts.getBool("symmetrize", false);
    bool stats = opts.getBool("stats", out.empty());
    std::uint64_t seed = opts.getUint("seed", 1);

    graph::CsrGraph g;
    if (!in.empty()) {
        if (endsWith(in, ".gr"))
            g = graph::readDimacs(in);
        else if (endsWith(in, ".bin"))
            g = graph::readBinary(in);
        else
            g = graph::readEdgeList(in, symmetrize);
    } else if (kind == "grid") {
        auto side = opts.getU32("side", 256);
        auto maxw = opts.getU32("max-weight", 100);
        g = graph::gridGraph(side, side, maxw, seed);
    } else if (kind == "random") {
        NodeId n = opts.getU32("nodes", 100000);
        double d = opts.getDouble("degree", 4.0);
        g = graph::randomGraph(n, d, seed);
    } else if (kind == "rmat") {
        auto sc = opts.getU32("rmat-scale", 16);
        auto ef = opts.getU32("edge-factor", 8);
        g = graph::rmatGraph(sc, ef, seed);
    } else if (kind == "powerlaw") {
        NodeId n = opts.getU32("nodes", 100000);
        double d = opts.getDouble("degree", 8.0);
        double a = opts.getDouble("alpha", 0.9);
        g = graph::powerLawGraph(n, d, a, seed, symmetrize);
    } else if (kind == "ws") {
        NodeId n = opts.getU32("nodes", 100000);
        auto k = opts.getU32("k", 10);
        double beta = opts.getDouble("beta", 0.05);
        g = graph::wattsStrogatz(n, k, beta, seed);
    } else if (kind == "bipartite") {
        NodeId l = opts.getU32("left", 60000);
        NodeId r = opts.getU32("right", 40000);
        double d = opts.getDouble("degree", 4.0);
        double a = opts.getDouble("alpha", 0.8);
        g = graph::bipartiteGraph(l, r, d, a, seed);
    } else {
        fatal("give --in=<file> or --kind="
              "grid|random|rmat|powerlaw|ws|bipartite");
    }
    opts.rejectUnused();

    if (stats) {
        graph::GraphStats s = graph::analyzeGraph(g);
        TextTable t;
        t.header({"nodes", "edges", "avg-deg", "max-deg",
                  "est-diam", "reach(0)", "sim-bytes(32B nodes)"});
        SimAlloc alloc;
        g.assignAddresses(alloc, 32);
        t.row({TextTable::count(s.nodes), TextTable::count(s.edges),
               TextTable::num(s.avgDegree, 2),
               TextTable::count(s.maxDegree),
               TextTable::count(s.estDiameter),
               TextTable::count(s.reachableFrom0),
               TextTable::count(g.simBytes())});
        t.print();
    }
    if (!out.empty()) {
        if (endsWith(out, ".gr"))
            graph::writeDimacs(g, out);
        else if (endsWith(out, ".bin"))
            graph::writeBinary(g, out);
        else
            fatal("--out must end in .gr or .bin");
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}
