/**
 * @file
 * Tests for the per-task cycle probe (runtime/task_probe.hh): the
 * "tasks" group means the same thing under the Galois, Minnow and
 * BSP executors, and the dequeue tail it records is the one dequeue
 * bundling exists to shorten.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/workloads.hh"

namespace minnow
{
namespace
{

/** An sssp run and its stats flattened to "group.stat" keys. */
struct SsspRun
{
    harness::ExperimentResult result;
    StatsReport report;
};

SsspRun
runSssp(harness::Config config)
{
    harness::Workload w = harness::makeWorkload("sssp", 0.05, 42);
    harness::RunSpec rs;
    rs.config = config;
    rs.threads = 4;
    rs.machine.numCores = 4;
    SsspRun r;
    rs.statsHook = [&r](const StatsRegistry &s) { s.flatten(r.report); };
    r.result = harness::runExperiment(w, rs);
    EXPECT_FALSE(r.result.run.timedOut);
    EXPECT_TRUE(r.result.run.verified);
    return r;
}

double
total(const SsspRun &r, const std::string &metric)
{
    EXPECT_TRUE(r.report.has("tasks." + metric + ".total")) << metric;
    return r.report.get("tasks." + metric + ".total");
}

TEST(TaskProbe, DefinitionsHoldAcrossExecutors)
{
    // Galois: one dequeue and one execute per popped task, and the
    // worklist's own pop counter agrees.
    SsspRun obim = runSssp(harness::Config::Obim);
    EXPECT_GT(total(obim, "execute"), 0);
    EXPECT_EQ(total(obim, "execute"), total(obim, "dequeue"));
    EXPECT_EQ(total(obim, "dequeue"),
              obim.report.get("worklist.pops"));
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
              bsp.report.get("bsp.vertexOps"));
    EXPECT_EQ(total(bsp, "dequeue"), 0);
    EXPECT_EQ(total(bsp, "push"), 0);
    EXPECT_EQ(total(bsp, "popWait"), 0);
}

} // namespace
} // namespace minnow
