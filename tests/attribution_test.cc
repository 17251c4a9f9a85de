/**
 * @file
 * Tests for the causal-attribution layer (mem/attribution.hh):
 * lifecycle classification at the unit level (late prefetches cover
 * stall cycles, early-evicted and polluting fills are both charged,
 * redundant issues counted, pollution windows expire), lineage id
 * conservation through push/enqueue/dequeue including kill/rescue
 * drains, and the determinism contract (attribution stats are
 * byte-identical with and without a checkpoint save, and two saves
 * write the same witness).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "base/stats.hh"
#include "harness/workloads.hh"
#include "mem/attribution.hh"

namespace minnow
{
namespace
{

using mem::Attribution;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "minnow_attr_test_" + name;
}

/** The bytes of @p path ("" when it cannot be read). */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Pull one numeric stat value out of a stats JSON string. */
double
statValue(const std::string &json, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = json.find(needle);
    EXPECT_NE(pos, std::string::npos) << "missing stat " << key;
    if (pos == std::string::npos)
        return -1;
    return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

// ---------------------------------------------------------------
// Unit-level lifecycle classification.
// ---------------------------------------------------------------

TEST(AttributionPrefetch, LateUseCoversStallCycles)
{
    StatsRegistry reg;
    Attribution at(reg, nullptr, 2);

    // Issued at 100, fills at 300, demanded at 200: the demand hit
    // under the fill, so the class is late and the prefetch covered
    // demand - issue = 100 stall cycles (the miss would otherwise
    // have started at the demand).
    at.prefetchFilled(0, 5, 100, 300, 0, false);
    EXPECT_EQ(at.trackedLines(), 1u);
    at.prefetchDemandUse(0, 5, 200, true);
    EXPECT_EQ(at.counts().late, 1u);
    EXPECT_EQ(at.counts().timely, 0u);
    EXPECT_EQ(at.stallCyclesCovered(), 100u);
    EXPECT_EQ(at.trackedLines(), 0u);
}

TEST(AttributionPrefetch, TimelyUseAfterFill)
{
    StatsRegistry reg;
    Attribution at(reg, nullptr, 2);

    at.prefetchFilled(1, 6, 100, 150, 0, false);
    at.prefetchDemandUse(1, 6, 400, false);
    EXPECT_EQ(at.counts().timely, 1u);
    EXPECT_EQ(at.counts().late, 0u);
    EXPECT_EQ(at.stallCyclesCovered(), 0u);
}

TEST(AttributionPrefetch, EarlyEvictedAndPollutingBothCharged)
{
    StatsRegistry reg;
    Attribution at(reg, nullptr, 2);

    // A prefetch fill displaces victim line 99, then is itself
    // evicted before use: the fill is charged early-evicted, and
    // when the victim demand-misses inside the window the same fill
    // is charged polluting too. Both classes must land.
    at.prefetchFilled(0, 7, 10, 20, 0, false);
    at.fillVictim(0, 99, 20);
    at.prefetchEvicted(0, 7);
    EXPECT_EQ(at.counts().earlyEvicted, 1u);

    at.demandMiss(0, 99, 50);
    EXPECT_EQ(at.counts().polluting, 1u);

    // The early-evicted line demand-missing again inside the window
    // is the cost of that eviction (missAfterEvict).
    at.demandMiss(0, 7, 60);
    EXPECT_EQ(at.missAfterEvict(), 1u);
    EXPECT_EQ(at.demandMisses(), 2u);
}

TEST(AttributionPrefetch, PollutionWindowExpires)
{
    StatsRegistry reg;
    Attribution at(reg, nullptr, 2);

    at.prefetchFilled(0, 8, 5, 10, 0, false);
    at.fillVictim(0, 42, 10);
    // 10 + kAttributionWindow < the re-miss: the victim entry
    // expired before it, so nothing is charged.
    at.demandMiss(0, 42, 10 + kAttributionWindow + 1);
    EXPECT_EQ(at.counts().polluting, 0u);
}

TEST(AttributionPrefetch, RedundantIssuesCounted)
{
    StatsRegistry reg;
    Attribution at(reg, nullptr, 4);

    at.prefetchRedundant(0);
    at.prefetchRedundant(0);
    at.prefetchRedundant(3);
    EXPECT_EQ(at.counts().redundant, 3u);
}

// ---------------------------------------------------------------
// Lineage id conservation.
// ---------------------------------------------------------------

TEST(AttributionLineage, PushEnqueueDequeueDrains)
{
    StatsRegistry reg;
    Attribution at(reg, nullptr, 2);

    std::uint64_t a = at.pushTask(0, 10);
    std::uint64_t b = at.pushTask(1, 12);
    std::uint64_t c = at.pushTask(0, 14);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(c, 0u);
    EXPECT_EQ(at.liveLineage(), 3u);

    at.taskEnqueued(a, 20);
    at.taskEnqueued(b, 22);
    // c is never enqueued (spill path): dequeue must still drain it.

    at.taskDequeued(1, a, 50);
    at.taskDequeued(0, b, 55);
    EXPECT_EQ(at.liveLineage(), 1u);
    at.taskDequeued(1, c, 60);
    EXPECT_EQ(at.liveLineage(), 0u);

    // Lineage 0 (seeds, attribution-off items) never tracks.
    at.taskDequeued(0, 0, 70);
    EXPECT_EQ(at.liveLineage(), 0u);
}

// ---------------------------------------------------------------
// Full-run contracts (harness-level).
// ---------------------------------------------------------------

/** Run @p spec on @p w; its stats document lands in @p stats. */
harness::ExperimentResult
runWithStats(harness::Workload &w, harness::RunSpec spec,
             std::string &stats)
{
    spec.statsHook = [&stats](const StatsRegistry &s) {
        stats = s.toJson();
    };
    return harness::runExperiment(w, spec);
}

harness::RunSpec
attrSpec()
{
    harness::RunSpec spec;
    spec.config = harness::Config::MinnowPf;
    spec.threads = 8;
    spec.machine.numCores = 8;
    spec.machine.attribution = true;
    return spec;
}

TEST(AttributionRun, KillRescueDrainsWithoutIdLeaks)
{
    harness::Workload w = harness::makeWorkload("sssp", 0.05, 7);
    harness::RunSpec spec = attrSpec();
    spec.machine.faultSpec =
        "engine_kill:core=0,at=5000;engine_stall:core=3,at=8000,"
        "dur=20000";
    std::string json;
    auto r = runWithStats(w, spec, json);
    EXPECT_TRUE(r.run.verified);
    EXPECT_GT(statValue(json, "lineageAssigned"), 0.0);
    // Every id assigned at a push is drained at a pop even when
    // kill/rescue reroutes items through the global queue and the
    // software fallback path.
    EXPECT_EQ(statValue(json, "lineageLive"), 0.0);
    EXPECT_EQ(statValue(json, "lineageAssigned"),
              statValue(json, "lineageDequeued"));
}

TEST(AttributionRun, StatsByteIdenticalAcrossCheckpoint)
{
    // Saving a witness leaves the attribution stats as a plain run
    // leaves them, and two runs save the same witness bytes.
    harness::Workload w = harness::makeWorkload("sssp", 0.05, 7);
    std::string coldStats;
    auto cold = runWithStats(w, attrSpec(), coldStats);
    ASSERT_TRUE(cold.run.verified);

    std::string witness[2];
    for (int i = 0; i < 2; ++i) {
        std::string path = tmpPath("anchor" + std::to_string(i) +
                                   ".ckpt");
        harness::RunSpec save = attrSpec();
        save.checkpointOut = path;
        std::string savedStats;
        auto saved = runWithStats(w, save, savedStats);
        EXPECT_TRUE(saved.run.verified);
        EXPECT_EQ(coldStats, savedStats);
        witness[i] = readFile(path);
        std::remove(path.c_str());
    }
    ASSERT_FALSE(witness[0].empty());
    EXPECT_TRUE(witness[0] == witness[1]) << "witnesses differ";
}

} // anonymous namespace
} // namespace minnow
