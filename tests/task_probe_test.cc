/**
 * @file
 * Tests for the per-task cycle probe (runtime/task_probe.hh): the
 * "tasks" group means the same thing under the Galois, Minnow and
 * BSP executors, and the dequeue tail it records is the one dequeue
 * bundling exists to shorten.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "harness/workloads.hh"

namespace minnow
{
namespace
{

/**
 * An sssp run and the stats its statsHook read: the "tasks"
 * histograms' sample counts, worklist.pops and bsp.vertexOps, keyed
 * "group.stat"; NaN for a stat the run did not register.
 */
struct SsspRun
{
    harness::ExperimentResult result;
    std::map<std::string, double> stats;
};

double
read(const StatsRegistry &s, const std::string &group,
     const std::string &name)
{
    const StatsGroup *g = s.find(group);
    const Stat *stat = g ? g->find(name) : nullptr;
    if (!stat)
        return std::nan("");
    if (stat->kind() == StatKind::Histogram)
        return double(static_cast<const HistogramStat &>(*stat).total());
    return stat->value();
}

SsspRun
runSssp(harness::Config config)
{
    harness::Workload w = harness::makeWorkload("sssp", 0.05, 42);
    harness::RunSpec rs;
    rs.config = config;
    rs.threads = 4;
    rs.machine.numCores = 4;
    SsspRun r;
    rs.statsHook = [&r](const StatsRegistry &s) {
        for (const char *metric : {"execute", "dequeue", "push", "popWait"})
            r.stats[std::string("tasks.") + metric] =
                read(s, "tasks", metric);
        r.stats["worklist.pops"] = read(s, "worklist", "pops");
        r.stats["bsp.vertexOps"] = read(s, "bsp", "vertexOps");
    };
    r.result = harness::runExperiment(w, rs);
    EXPECT_FALSE(r.result.run.timedOut);
    EXPECT_TRUE(r.result.run.verified);
    return r;
}

double
total(const SsspRun &r, const std::string &metric)
{
    double v = r.stats.at("tasks." + metric);
    EXPECT_FALSE(std::isnan(v)) << metric;
    return v;
}

TEST(TaskProbe, DefinitionsHoldAcrossExecutors)
{
    // Galois: one dequeue and one execute per popped task, and the
    // worklist's own pop counter agrees.
    SsspRun obim = runSssp(harness::Config::Obim);
    EXPECT_GT(total(obim, "execute"), 0);
    EXPECT_EQ(total(obim, "execute"), total(obim, "dequeue"));
    EXPECT_EQ(total(obim, "dequeue"),
              obim.stats.at("worklist.pops"));
    EXPECT_GT(total(obim, "push"), 0);

    // Minnow: popWait counts real parks in the engine, at most one
    // per blocked dequeue — not one per task, as when it was sampled
    // from the dequeue latency.
    SsspRun pf = runSssp(harness::Config::MinnowPf);
    EXPECT_GT(total(pf, "execute"), 0);
    EXPECT_EQ(total(pf, "execute"), total(pf, "dequeue"));
    EXPECT_LE(total(pf, "popWait"), double(pf.result.engines.dequeueBlocks));
    EXPECT_LT(total(pf, "popWait"), total(pf, "dequeue"));
    EXPECT_GT(total(pf, "push"), 0);

    // BSP: execute per vertex op; no queue, so no pops or pushes.
    SsspRun bsp = runSssp(harness::Config::Bsp);
    EXPECT_GT(total(bsp, "execute"), 0);
    EXPECT_EQ(total(bsp, "execute"),
              bsp.stats.at("bsp.vertexOps"));
    EXPECT_EQ(total(bsp, "dequeue"), 0);
    EXPECT_EQ(total(bsp, "push"), 0);
    EXPECT_EQ(total(bsp, "popWait"), 0);
}

} // namespace
} // namespace minnow
