/**
 * @file
 * Tests for the simulated-time timeline sink (sim/timeline.hh): ring
 * wrap semantics (oldest records dropped and counted, never an
 * unbalanced begin/end pair), track-category filtering, the
 * begin/end export order for nested spans, histogram percentiles,
 * the off-by-default contract (no trace, no stats group), full-run
 * determinism (same seed => byte-identical trace files), and the
 * --debug-file routing in base/trace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "base/stats.hh"
#include "base/trace.hh"
#include "harness/workloads.hh"
#include "sim/timeline.hh"

namespace minnow
{
namespace
{

using timeline::Cat;
using timeline::Name;
using timeline::Pid;
using timeline::Timeline;
using timeline::TrackId;

std::size_t
countSub(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle);
         pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------
// Ring buffer semantics.
// ---------------------------------------------------------------

TEST(TimelineRing, WrapDropsOldestAndCounts)
{
    Timeline tl(8, timeline::allCats());
    TrackId t = tl.addTrack(Cat::Task, Pid::Cores, 0, "core0");
    ASSERT_NE(t, timeline::kNoTrack);

    for (Cycle i = 0; i < 20; ++i)
        tl.span(t, Name::Task, i * 10, i * 10 + 5);

    EXPECT_EQ(tl.recorded(), 8u);
    EXPECT_EQ(tl.dropped(), 12u);
    EXPECT_EQ(tl.spans(), 20u);

    // Only the newest 8 spans survive, as balanced B/E pairs; the
    // oldest surviving span began at cycle 120.
    std::string json = tl.toJson();
    EXPECT_EQ(countSub(json, "\"ph\":\"B\""), 8u);
    EXPECT_EQ(countSub(json, "\"ph\":\"E\""), 8u);
    EXPECT_EQ(countSub(json, "\"ts\":110"), 0u);
    EXPECT_EQ(countSub(json, "\"ts\":120"), 1u);
}

TEST(TimelineRing, NoWrapWithinCapacity)
{
    Timeline tl(16, timeline::allCats());
    TrackId t = tl.addTrack(Cat::Task, Pid::Cores, 0, "core0");
    for (Cycle i = 0; i < 10; ++i)
        tl.span(t, Name::Task, i, i + 1);
    EXPECT_EQ(tl.recorded(), 10u);
    EXPECT_EQ(tl.dropped(), 0u);
}

// ---------------------------------------------------------------
// Category filtering.
// ---------------------------------------------------------------

TEST(TimelineTracks, ParseTracksFilters)
{
    std::uint32_t mask = timeline::parseTracks("task,credit");
    Timeline tl(4, mask);
    EXPECT_TRUE(tl.wants(Cat::Task));
    EXPECT_TRUE(tl.wants(Cat::Credit));
    EXPECT_FALSE(tl.wants(Cat::Threadlet));
    EXPECT_FALSE(tl.wants(Cat::Engine));

    EXPECT_EQ(timeline::parseTracks(""), timeline::allCats());
    EXPECT_EQ(timeline::parseTracks("all"), timeline::allCats());
    EXPECT_EQ(timeline::parseTracks(" task , sim "),
              timeline::parseTracks("task,sim"));
}

TEST(TimelineTracks, DisabledCategoryIsNoTrackNoop)
{
    Timeline tl(16, timeline::parseTracks("task"));
    TrackId t =
        tl.addTrack(Cat::Threadlet, Pid::Threadlets, 0, "lane0");
    EXPECT_EQ(t, timeline::kNoTrack);
    tl.span(t, Name::PrefetchTask, 0, 10); // must be a cheap no-op.
    tl.instant(t, Name::EngineKill, 5);
    tl.counter(t, 5, 1.0);
    EXPECT_EQ(tl.recorded(), 0u);
    EXPECT_EQ(tl.spans(), 0u);
}

// ---------------------------------------------------------------
// Export order: nested spans sharing a begin cycle must emit the
// enclosing B first and still balance.
// ---------------------------------------------------------------

TEST(TimelineJson, NestedEqualBeginSpansStayBalanced)
{
    Timeline tl(16, timeline::allCats());
    TrackId t = tl.addTrack(Cat::Task, Pid::Cores, 0, "core0");
    // Inner completes (and is recorded) first; both begin at 100.
    tl.span(t, Name::Dequeue, 100, 150);
    tl.span(t, Name::Task, 100, 300);

    std::string json = tl.toJson();
    std::size_t outerB =
        json.find("\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":100,"
                  "\"name\":\"task\"");
    std::size_t innerB =
        json.find("\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":100,"
                  "\"name\":\"dequeue\"");
    ASSERT_NE(outerB, std::string::npos);
    ASSERT_NE(innerB, std::string::npos);
    EXPECT_LT(outerB, innerB); // enclosing span opens first.
    EXPECT_EQ(countSub(json, "\"ph\":\"B\""), 2u);
    EXPECT_EQ(countSub(json, "\"ph\":\"E\""), 2u);
}

TEST(TimelineJson, CountersAndInstantsCarryValues)
{
    Timeline tl(16, timeline::allCats());
    TrackId c = tl.addCounterTrack(Cat::Credit, "minnow0.credits");
    tl.counter(c, 50, 32.0);
    tl.counter(c, 90, 7.5);
    tl.instant(tl.simTrack(), Name::WatchdogTrip, 70);

    std::string json = tl.toJson();
    EXPECT_NE(json.find("\"value\":32"), std::string::npos);
    EXPECT_NE(json.find("\"value\":7.5"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("watchdogTrip"), std::string::npos);
    EXPECT_EQ(tl.counterSamples(), 2u);
    EXPECT_EQ(tl.instants(), 1u);
}

// ---------------------------------------------------------------
// Histogram percentiles (the attribution report's p50/p95/p99).
// ---------------------------------------------------------------

TEST(HistogramPercentile, BucketUpperEdges)
{
    HistogramStat h("lat", "test", 10, 16);
    EXPECT_EQ(h.percentile(0.5), 0u); // empty => 0.
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    // 100 samples spread evenly over buckets [0,10) .. [90,100):
    // the median falls in the 5th bucket, whose upper edge is 49.
    EXPECT_EQ(h.percentile(0.50), 49u);
    EXPECT_EQ(h.percentile(0.95), 99u);
    EXPECT_EQ(h.percentile(1.0), 99u);
}

// ---------------------------------------------------------------
// Full-run behaviour via the harness.
// ---------------------------------------------------------------

harness::ExperimentResult
runOnce(const std::string &timelinePath)
{
    harness::Workload w = harness::makeWorkload("sssp", 0.02, 1);
    harness::RunSpec rs;
    rs.config = harness::Config::MinnowPf;
    rs.threads = 4;
    rs.machine.numCores = 4;
    rs.machine.timelinePath = timelinePath;
    return harness::runExperiment(w, rs);
}

TEST(TimelineRun, DisabledEmitsNoGroupAndNoFile)
{
    harness::ExperimentResult r = runOnce("");
    EXPECT_FALSE(r.run.statsJson.empty());
    EXPECT_EQ(r.run.statsJson.find("\"timeline\":"),
              std::string::npos);
}

TEST(TimelineRun, EnabledRunsAreByteIdentical)
{
    std::string a = "timeline_test_a.json";
    std::string b = "timeline_test_b.json";
    harness::ExperimentResult ra = runOnce(a);
    harness::ExperimentResult rb = runOnce(b);

    // The stats snapshot carries the timeline's record counters.
    EXPECT_NE(ra.run.statsJson.find("\"timeline\":"),
              std::string::npos);
    EXPECT_NE(ra.run.statsJson.find("\"droppedEvents\":"),
              std::string::npos);

    std::string ja = readFile(a);
    std::string jb = readFile(b);
    ASSERT_FALSE(ja.empty());
    EXPECT_EQ(ja, jb); // determinism contract.
    EXPECT_NE(ja.find("\"minnow-timeline-1\""), std::string::npos);
    EXPECT_NE(ja.find("\"ph\":\"B\""), std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(TimelineRun, CreditHandoffsAreVisibleInTrace)
{
    // Satellite regression: a credit return handed straight to a
    // parked waiter never touches creditsFree_, so the counter
    // track's change detection can't see it — the engine must emit
    // an explicit instant (plus a counter spike) for each handoff.
    std::string path = "timeline_test_handoff.json";
    harness::Workload w = harness::makeWorkload("sssp", 0.02, 1);
    harness::RunSpec rs;
    rs.config = harness::Config::MinnowPf;
    rs.threads = 4;
    rs.machine.numCores = 4;
    rs.machine.minnow.prefetchCredits = 2; // starve => handoffs.
    rs.machine.timelinePath = path;
    harness::ExperimentResult r = harness::runExperiment(w, rs);
    EXPECT_FALSE(r.run.timedOut);
    ASSERT_GT(r.engines.creditHandoffs, 0u)
        << "2 credits on sssp must exercise the handoff path";
    std::string json = readFile(path);
    ASSERT_FALSE(json.empty());
    EXPECT_GE(countSub(json, "\"creditHandoff\""),
              1u);
    std::remove(path.c_str());
}

TEST(TimelineRun, CoexistsWithStatsIntervalSampler)
{
    // Regression: the timeline counter sampler and the
    // --stats-interval sampler are both self-rearming EventQueue
    // daemons; with a plain !empty() re-arm test they kept each
    // other alive forever and the run never terminated. Both armed
    // together must still drain.
    std::string path = "timeline_test_coexist.json";
    harness::Workload w = harness::makeWorkload("sssp", 0.02, 1);
    harness::RunSpec rs;
    rs.config = harness::Config::MinnowPf;
    rs.threads = 4;
    rs.machine.numCores = 4;
    rs.machine.timelinePath = path;
    rs.machine.statsSampleInterval = 5000;
    harness::ExperimentResult r = harness::runExperiment(w, rs);
    EXPECT_NE(r.run.statsJson.find("\"timeline\":"),
              std::string::npos);
    EXPECT_FALSE(readFile(path).empty());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// --debug-file routing (base/trace.cc).
// ---------------------------------------------------------------

TEST(TraceOutputFile, RoutesRecordsToFile)
{
    std::string path = "timeline_test_debug.log";
    trace::setOutputFile(path);
    trace::print(trace::Flag::Exec, "test", "hello %d", 7);
    trace::setOutputFile(""); // back to stderr; closes the file.
    std::string log = readFile(path);
    EXPECT_NE(log.find("hello 7"), std::string::npos);
    EXPECT_NE(log.find("test"), std::string::npos);
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace minnow
