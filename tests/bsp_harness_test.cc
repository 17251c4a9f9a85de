/**
 * @file
 * Tests for the BSP (GraphMat-like) engine and the experiment
 * harness: correctness of BSP execution for each workload class,
 * bucketed (GMat*) mode, and harness configuration coverage.
 */

#include <gtest/gtest.h>

#include <string>

#include "apps/cc.hh"
#include "apps/pr.hh"
#include "apps/sssp.hh"
#include "bsp/bsp_engine.hh"
#include "graph/generators.hh"
#include "graph/gstats.hh"
#include "harness/workloads.hh"
#include "worklist/obim.hh"
#include "runtime/machine.hh"

namespace minnow
{
namespace
{

using bsp::runBsp;
using harness::Config;
using harness::makeWorkload;
using harness::RunSpec;
using harness::runExperiment;
using harness::Workload;

MachineConfig
cfg(std::uint32_t cores)
{
    MachineConfig c = scaledMachine();
    c.numCores = cores;
    return c;
}

TEST(Bsp, BfsConvergesAndVerifies)
{
    runtime::Machine m(cfg(4));
    graph::CsrGraph g = graph::randomGraph(2000, 4.0, 7);
    g.assignAddresses(m.alloc);
    apps::SsspApp app(&g, 0, true, 1u << 30, "bfs");
    galois::RunConfig bc;
    bc.threads = 4;
    double supersteps = 0, vertexOps = 0;
    bc.statsHook = [&](const StatsRegistry &s) {
        const StatsGroup *group = s.find("bsp");
        ASSERT_NE(group, nullptr);
        supersteps = group->find("supersteps")->value();
        vertexOps = group->find("vertexOps")->value();
    };
    auto r = runBsp(m, app, bc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
    // BFS supersteps track hop levels: close to the BFS depth.
    graph::GraphStats gs = graph::analyzeGraph(g);
    EXPECT_GE(supersteps, gs.estDiameter / 2);
    EXPECT_GT(vertexOps, 0);
}

TEST(Bsp, SsspUnorderedDoesMoreWorkThanObim)
{
    // The Section 3.1 story at unit-test scale: unordered BSP
    // re-relaxes far more than priority-ordered execution. Wide
    // weight spread + high diameter amplify ordering sensitivity.
    graph::CsrGraph g = graph::gridGraph(60, 60, 1000, 2);

    runtime::Machine m1(cfg(4));
    g.assignAddresses(m1.alloc);
    apps::SsspApp app1(&g, 0, false, 1u << 30, "sssp");
    galois::RunConfig bc;
    bc.threads = 4;
    auto bspRun = runBsp(m1, app1, bc);
    ASSERT_TRUE(bspRun.verified);

    Workload w = makeWorkload("sssp", 0.03, 2);
    RunSpec spec;
    spec.config = Config::Obim;
    spec.threads = 4;
    spec.machine = cfg(4);
    auto obimRun = runExperiment(w, spec);
    ASSERT_TRUE(obimRun.run.verified);

    // Same-order comparison isn't meaningful across different graphs,
    // so compare relaxation counts per edge on the shared graph.
    runtime::Machine m2(cfg(4));
    g.assignAddresses(m2.alloc);
    apps::SsspApp app2(&g, 0, false, 1u << 30, "sssp");
    worklist::ObimWorklist wl(&m2, 6, 16, 2);
    galois::RunConfig rc;
    rc.threads = 4;
    auto obim2 = galois::runParallel(m2, app2, wl, rc);
    ASSERT_TRUE(obim2.verified);
    EXPECT_GT(bspRun.workload.edgesVisited,
              obim2.workload.edgesVisited);
}

TEST(Bsp, BucketedModeImprovesSsspWork)
{
    graph::CsrGraph g = graph::gridGraph(24, 24, 100, 2);
    auto run = [&](bool bucketed) {
        runtime::Machine m(cfg(4));
        g.assignAddresses(m.alloc);
        apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
        galois::RunConfig bc;
        bc.threads = 4;
        // lg bucket interval 6 is coarse: per-kernel overhead.
        auto r = runBsp(m, app, bc, bucketed, 6);
        EXPECT_TRUE(r.verified);
        return r.workload.edgesVisited;
    };
    // GMat*: coarse priority order reduces wasted relaxations.
    EXPECT_LT(run(true), run(false));
}

TEST(Bsp, PrConverges)
{
    runtime::Machine m(cfg(4));
    graph::CsrGraph g = graph::powerLawGraph(500, 8.0, 0.9, 13);
    g.assignAddresses(m.alloc);
    apps::PrApp app(&g, 0.85, 1e-4, 1u << 30);
    galois::RunConfig bc;
    bc.threads = 4;
    auto r = runBsp(m, app, bc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
}

TEST(Harness, AllWorkloadsConstructAtTinyScale)
{
    for (const std::string &name : harness::workloadNames()) {
        Workload w = makeWorkload(name, 0.02, 3);
        EXPECT_EQ(w.name, name);
        EXPECT_GT(w.graph.numNodes(), 0u) << name;
        EXPECT_GT(w.graph.numEdges(), 0u) << name;
        EXPECT_NE(w.app, nullptr) << name;
        EXPECT_FALSE(w.inputDesc.empty()) << name;
    }
}

TEST(Harness, ConfigNamesRoundTrip)
{
    for (Config c : {Config::SerialRelaxed, Config::Obim, Config::Fifo,
                     Config::Lifo, Config::Strict, Config::Minnow,
                     Config::MinnowPf, Config::Bsp,
                     Config::BspBucketed}) {
        EXPECT_EQ(harness::parseConfig(harness::configName(c)), c);
    }
}

TEST(HarnessDeath, RetiredConfigNamesAreFatal)
{
    // A hardware prefetcher is MachineConfig::prefetcher, not a config.
    for (const char *name : {"obim-stride", "obim-imp"}) {
        EXPECT_EXIT(harness::parseConfig(name),
                    testing::ExitedWithCode(1),
                    std::string("unknown config '") + name + "'")
            << name;
    }
}

TEST(Harness, RunsEveryConfigOnBfs)
{
    struct Run
    {
        Config config;
        PrefetcherKind prefetcher;
    };
    for (Run run : {Run{Config::SerialRelaxed, PrefetcherKind::None},
                    Run{Config::Obim, PrefetcherKind::None},
                    Run{Config::Obim, PrefetcherKind::Stride},
                    Run{Config::Obim, PrefetcherKind::Imp},
                    Run{Config::Fifo, PrefetcherKind::None},
                    Run{Config::Minnow, PrefetcherKind::None},
                    Run{Config::MinnowPf, PrefetcherKind::None},
                    Run{Config::Bsp, PrefetcherKind::None}}) {
        Workload w = makeWorkload("bfs", 0.05, 7);
        RunSpec spec;
        spec.config = run.config;
        spec.threads = run.config == Config::SerialRelaxed ? 1 : 4;
        spec.machine = cfg(4);
        spec.machine.prefetcher = run.prefetcher;
        auto r = runExperiment(w, spec);
        std::string what = harness::configName(run.config) +
                           " prefetcher=" +
                           std::to_string(int(run.prefetcher));
        EXPECT_FALSE(r.run.timedOut) << what;
        EXPECT_TRUE(r.run.verified) << what;
        EXPECT_GT(r.run.cycles, 0u) << what;
    }
}

TEST(Harness, MinnowPfBeatsObimOnBfs)
{
    Workload w = makeWorkload("bfs", 0.3, 7);
    RunSpec sw;
    sw.config = Config::Obim;
    sw.threads = 8;
    sw.machine = cfg(8);
    auto base = runExperiment(w, sw);
    RunSpec hw;
    hw.config = Config::MinnowPf;
    hw.threads = 8;
    hw.machine = cfg(8);
    auto mn = runExperiment(w, hw);
    ASSERT_TRUE(base.run.verified);
    ASSERT_TRUE(mn.run.verified);
    EXPECT_LT(mn.run.cycles, base.run.cycles);
    EXPECT_LT(mn.run.l2Mpki, base.run.l2Mpki / 2);
}

TEST(Harness, TcUses64ByteNodes)
{
    Workload w = makeWorkload("tc", 0.02, 3);
    EXPECT_EQ(w.nodeBytes, 64u);
    EXPECT_FALSE(w.usesPriority);
}

} // anonymous namespace
} // namespace minnow
