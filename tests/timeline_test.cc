/**
 * @file
 * Tests for the simulated-time timeline sink (sim/timeline.hh): ring
 * wrap semantics (oldest records dropped and counted, never an
 * unbalanced begin/end pair), track-category filtering, the
 * begin/end export order for nested spans, histogram percentiles,
 * the off-by-default contract (no trace, no stats group), full-run
 * determinism (same seed => byte-identical trace files), the
 * streamed export's event order against a reference (concatenate
 * the per-track streams, then stable-sort by ts), when a Machine
 * writes the file, and the --debug-file routing in base/trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/sssp.hh"
#include "base/json.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "galois/executor.hh"
#include "graph/generators.hh"
#include "harness/workloads.hh"
#include "runtime/machine.hh"
#include "sim/timeline.hh"
#include "worklist/obim.hh"

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
    Timeline tl(8);
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
    StatsRegistry reg; // outlives the timeline, as a Machine's does.
    Timeline tl(16);
    TrackId t = tl.addTrack(Cat::Task, Pid::Cores, 0, "core0");
    for (Cycle i = 0; i < 10; ++i)
        tl.span(t, Name::Task, i, i + 1);
    EXPECT_EQ(tl.recorded(), 10u);
    EXPECT_EQ(tl.dropped(), 0u);
    // The ring grows as records arrive; the cap is still reported.
    EXPECT_EQ(tl.capacity(), 16u);
    tl.registerStats(reg);
    EXPECT_EQ(reg.find("timeline")->find("bufferCapacity")->value(),
              16.0);
    EXPECT_NE(tl.toJson().find("\"recordedEvents\":10,\"capacity\":16}"),
              std::string::npos);
}

TEST(TimelineRing, RegistryDeclaredAfterTimelineDiesFirst)
{
    // The registry is destroyed before the timeline that registered
    // into it; the timeline must then leave the dead registry alone.
    Timeline tl(16);
    StatsRegistry reg;
    tl.registerStats(reg);
    EXPECT_NE(reg.find("timeline"), nullptr);
}

// ---------------------------------------------------------------
// The missing track.
// ---------------------------------------------------------------

TEST(TimelineTracks, NoTrackIsNoop)
{
    // A core past the registered ones has no track (kNoTrack, also
    // the track of every component while tracing is off): emitting
    // to it records nothing.
    Timeline tl(16);
    TrackId t = tl.coreTaskTrack(0);
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
    Timeline tl(16);
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
    Timeline tl(16);
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
// Export order against a reference. The reference is the exporter's
// former whole-buffer algorithm: concatenate per track its B/E
// stream and its instants and counters, then the complete flows in
// (id, ts, kind, emission) order, and stable-sort it all by ts.
// ---------------------------------------------------------------

/** One emitted record, as the test saw it go into the Timeline. */
struct Emitted
{
    char kind; // 'S'pan, 'i'nstant, 'C'ounter, 's'/'t'/'f' flow leg.
    TrackId track;
    Name name;
    Cycle begin;
    std::uint64_t extra; // span end, counter bits or flow id.
};

/** Emits into a Timeline and keeps its own copy of every record. */
struct Recorder
{
    struct TrackInfo
    {
        std::uint32_t pid;
        std::uint32_t tid;
        std::string name;
    };

    explicit Recorder(std::size_t cap)
        : tl(cap), cap(cap)
    {
        // The constructor registered the sim track as id 0.
        tracks.push_back({std::uint32_t(Pid::Sim), 0, "sim"});
    }

    TrackId
    track(Pid pid, std::uint32_t tid, const std::string &name)
    {
        TrackId t = tl.addTrack(Cat::Task, pid, tid, name);
        tracks.push_back({std::uint32_t(pid), tid, name});
        return t;
    }

    void
    span(TrackId t, Name n, Cycle b, Cycle e)
    {
        tl.span(t, n, b, e);
        recs.push_back({'S', t, n, b, std::max(b, e)});
    }

    void
    instant(TrackId t, Name n, Cycle at)
    {
        tl.instant(t, n, at);
        recs.push_back({'i', t, n, at, 0});
    }

    void
    counter(TrackId t, Cycle at, double v)
    {
        tl.counter(t, at, v);
        recs.push_back({'C', t, Name::Task, at,
                        std::bit_cast<std::uint64_t>(v)});
    }

    void
    flow(char ph, TrackId t, Name n, Cycle at, std::uint64_t id)
    {
        if (ph == 's')
            tl.flowStart(t, n, at, id);
        else if (ph == 't')
            tl.flowStep(t, n, at, id);
        else
            tl.flowEnd(t, n, at, id);
        recs.push_back({ph, t, n, at, id});
    }

    Timeline tl;
    std::size_t cap;
    std::vector<TrackInfo> tracks;
    std::vector<Emitted> recs;
};

/** "ph pid tid ts name id-or-value" per event, as the export
 *  would print them, in reference order. */
std::vector<std::string>
referenceOrder(const Recorder &r)
{
    struct Ev
    {
        Cycle ts;
        char ph;
        TrackId track;
        Name name;
        std::uint64_t arg;
    };
    std::vector<Emitted> live = r.recs;
    if (live.size() > r.cap)
        live.erase(live.begin(), live.end() - std::ptrdiff_t(r.cap));

    struct SpanRec
    {
        Cycle begin, end;
        std::size_t idx;
        Name name;
    };
    const std::size_t nt = r.tracks.size();
    std::vector<std::vector<SpanRec>> spansBy(nt);
    std::vector<std::vector<Ev>> othersBy(nt);
    std::vector<std::pair<Emitted, std::size_t>> legs;
    for (std::size_t i = 0; i < live.size(); ++i) {
        const Emitted &e = live[i];
        if (e.kind == 'S')
            spansBy[e.track].push_back({e.begin, e.extra, i, e.name});
        else if (e.kind == 'i' || e.kind == 'C')
            othersBy[e.track].push_back(
                {e.begin, e.kind, e.track, e.name, e.extra});
        else
            legs.emplace_back(e, i);
    }
    std::vector<Ev> evs;
    for (TrackId t = 0; t < nt; ++t) {
        auto &sp = spansBy[t];
        std::sort(sp.begin(), sp.end(),
                  [](const SpanRec &a, const SpanRec &b) {
                      if (a.begin != b.begin)
                          return a.begin < b.begin;
                      if (a.end != b.end)
                          return a.end > b.end;
                      return a.idx < b.idx;
                  });
        std::vector<SpanRec> stack;
        for (SpanRec s : sp) {
            while (!stack.empty() && stack.back().end <= s.begin) {
                evs.push_back({stack.back().end, 'E', t, Name::Task, 0});
                stack.pop_back();
            }
            if (!stack.empty() && s.end > stack.back().end)
                s.end = stack.back().end;
            evs.push_back({s.begin, 'B', t, s.name, 0});
            stack.push_back(s);
        }
        for (; !stack.empty(); stack.pop_back())
            evs.push_back({stack.back().end, 'E', t, Name::Task, 0});
        evs.insert(evs.end(), othersBy[t].begin(), othersBy[t].end());
    }
    auto rank = [](char ph) { return ph == 's' ? 0 : ph == 't' ? 1 : 2; };
    std::sort(legs.begin(), legs.end(), [&](const auto &a, const auto &b) {
        if (a.first.extra != b.first.extra)
            return a.first.extra < b.first.extra;
        if (a.first.begin != b.first.begin)
            return a.first.begin < b.first.begin;
        if (rank(a.first.kind) != rank(b.first.kind))
            return rank(a.first.kind) < rank(b.first.kind);
        return a.second < b.second;
    });
    for (std::size_t i = 0; i < legs.size();) {
        std::size_t j = i;
        while (j < legs.size() && legs[j].first.extra == legs[i].first.extra)
            ++j;
        bool complete = legs[i].first.kind == 's' &&
                        legs[j - 1].first.kind == 'f';
        for (std::size_t k = i + 1; complete && k + 1 < j; ++k)
            complete = legs[k].first.kind == 't';
        for (std::size_t k = i; complete && k < j; ++k) {
            const Emitted &e = legs[k].first;
            evs.push_back({e.begin, e.kind, e.track, e.name, e.extra});
        }
        i = j;
    }
    std::stable_sort(evs.begin(), evs.end(),
                     [](const Ev &a, const Ev &b) { return a.ts < b.ts; });

    std::vector<std::string> out;
    for (const Ev &e : evs) {
        const Recorder::TrackInfo &tr = r.tracks[e.track];
        std::string k = std::string(1, e.ph) + " " +
                        std::to_string(tr.pid) + " " +
                        std::to_string(tr.tid) + " " +
                        std::to_string(e.ts) + " ";
        if (e.ph == 'C') {
            k += tr.name + " ";
            json::appendNumber(k, std::bit_cast<double>(e.arg));
        } else if (e.ph != 'E') {
            k += timeline::nameString(e.name);
            if (e.ph != 'B' && e.ph != 'i')
                k += " " + std::to_string(e.arg);
        }
        out.push_back(k);
    }
    return out;
}

/** Text of field @p key ("ts", "name", ...) in one event object. */
std::string
field(const std::string &ev, const std::string &key)
{
    std::size_t at = ev.find("\"" + key + "\":");
    if (at == std::string::npos)
        return "";
    at += key.size() + 3;
    if (ev[at] == '"')
        return ev.substr(at + 1, ev.find('"', at + 1) - at - 1);
    std::size_t end = ev.find_first_of(",}", at);
    return ev.substr(at, end - at);
}

/** The export's non-metadata events, keyed as referenceOrder(). */
std::vector<std::string>
exportedOrder(const std::string &json)
{
    std::vector<std::string> out;
    std::size_t pos = json.find("\"traceEvents\":[");
    if (pos == std::string::npos)
        return out;
    pos += 15;
    while (json[pos] == '{') {
        std::size_t end = pos;
        for (int depth = 0;; ++end) {
            depth += json[end] == '{';
            depth -= json[end] == '}';
            if (depth == 0)
                break;
        }
        std::string ev = json.substr(pos, end + 1 - pos);
        pos = end + 1 + (json[end + 1] == ',');
        std::string ph = field(ev, "ph");
        if (ph == "M")
            continue;
        std::string k = ph + " " + field(ev, "pid") + " " +
                        field(ev, "tid") + " " + field(ev, "ts") + " ";
        if (ph == "C")
            k += field(ev, "name") + " " + field(ev, "value");
        else if (ph != "E")
            k += field(ev, "name");
        if (ph == "s" || ph == "t" || ph == "f")
            k += " " + field(ev, "id");
        out.push_back(k);
    }
    return out;
}

TEST(TimelineExport, TiesMatchReferenceOrder)
{
    Recorder r(64);
    TrackId a = r.track(Pid::Cores, 0, "core0");
    TrackId b = r.track(Pid::Cores, 1, "core1");
    TrackId c = r.track(Pid::Counters, 0, "credits");
    TrackId sim = 0;

    // Equal ts across tracks: both cores open and close at 100/200.
    r.span(b, Name::Task, 100, 200);
    r.span(a, Name::Task, 100, 200);
    r.span(a, Name::Dequeue, 100, 150);
    // An instant and a counter on track a tied with its B/E at 100,
    // and one instant recorded out of time order.
    r.instant(a, Name::EngineRecover, 300);
    r.counter(a, 100, 4.0);
    r.instant(a, Name::CreditHandoff, 100);
    r.counter(c, 100, 2.5);
    r.instant(sim, Name::WatchdogTrip, 100);
    // Flows of different ids at one ts, a multi-leg flow and a
    // start/end pair sharing its cycle; id 9 never ends.
    r.flow('s', a, Name::LineageFlow, 150, 7);
    r.flow('s', b, Name::LineageFlow, 150, 3);
    r.flow('s', b, Name::PrefetchFlow, 150, 9);
    r.flow('t', b, Name::PrefetchFlow, 175, 7);
    r.flow('f', a, Name::LineageFlow, 200, 7);
    r.flow('f', b, Name::LineageFlow, 150, 3);
    r.span(b, Name::Push, 200, 200);
    r.counter(c, 200, 3.0);

    std::vector<std::string> want = referenceOrder(r);
    std::vector<std::string> got = exportedOrder(r.tl.toJson());
    EXPECT_EQ(got, want);
    EXPECT_EQ(std::count_if(got.begin(), got.end(),
                            [](const std::string &k) {
                                return k.rfind("s ", 0) == 0;
                            }),
              2); // flow 9 has no end leg.
}

TEST(TimelineExport, WrappedRingMatchesReferenceOrder)
{
    // A ring of 10 keeps the last 10 records: flow 1 loses its start
    // leg, so it must vanish; flow 2 survives whole.
    Recorder r(10);
    TrackId a = r.track(Pid::Cores, 0, "core0");
    TrackId b = r.track(Pid::Cores, 1, "core1");
    r.flow('s', a, Name::LineageFlow, 10, 1);
    r.span(a, Name::Task, 0, 40);
    r.span(b, Name::Task, 5, 30);
    r.flow('s', b, Name::LineageFlow, 20, 2);
    r.span(a, Name::Task, 40, 60);
    r.flow('f', b, Name::LineageFlow, 50, 1);
    r.flow('f', a, Name::LineageFlow, 50, 2);
    for (Cycle t = 60; t < 120; t += 10)
        r.span(t % 20 ? a : b, Name::Dequeue, t, t + 10);
    ASSERT_GT(r.tl.dropped(), 0u);

    std::vector<std::string> want = referenceOrder(r);
    std::vector<std::string> got = exportedOrder(r.tl.toJson());
    EXPECT_EQ(got, want);
    for (const std::string &k : got)
        EXPECT_EQ(k.find("lineage 1"), std::string::npos) << k;
    EXPECT_EQ(std::count(got.begin(), got.end(),
                         "f 1 0 50 lineage 2"),
              1);
}

TEST(TimelineExport, RandomRecordsMatchReferenceOrder)
{
    // Many ties: every record lands in a window of 64 cycles, over
    // six tracks, with spans that need not nest (the clamp applies)
    // and flows whose legs may be lost to wrap.
    std::mt19937_64 rng(12345);
    for (std::size_t cap : {std::size_t(50), std::size_t(400),
                            std::size_t(5000)}) {
        Recorder r(cap);
        std::vector<TrackId> ts;
        for (std::uint32_t i = 0; i < 5; ++i)
            ts.push_back(r.track(Pid::Cores, i, "core" + std::to_string(i)));
        ts.push_back(0);
        for (int i = 0; i < 2000; ++i) {
            TrackId t = ts[rng() % ts.size()];
            Cycle at = rng() % 64;
            Name n = Name(rng() % std::uint32_t(Name::kNum));
            switch (rng() % 6) {
              case 0:
              case 1: r.span(t, n, at, at + rng() % 8); break;
              case 2: r.instant(t, n, at); break;
              case 3: r.counter(t, at, double(rng() % 5)); break;
              default: {
                static constexpr char kPh[] = {'s', 't', 'f'};
                r.flow(kPh[rng() % 3], t, n, at, rng() % 40);
              }
            }
        }
        EXPECT_EQ(exportedOrder(r.tl.toJson()), referenceOrder(r))
            << "ring capacity " << cap;
    }
}

TEST(TimelineExport, WriteFileIsToJsonPlusNewline)
{
    // Large enough to span several output chunks.
    Timeline tl(60000);
    TrackId t = tl.addTrack(Cat::Task, Pid::Cores, 0, "core0");
    TrackId c = tl.addCounterTrack(Cat::Credit, "credits");
    for (Cycle i = 0; i < 40000; ++i) {
        tl.span(t, Name::Task, i * 4, i * 4 + 3);
        if (i % 2)
            tl.counter(c, i * 4, double(i % 7) / 3.0);
    }
    std::string path = "timeline_test_chunks.json";
    EXPECT_FALSE(tl.unchangedSinceWrite());
    ASSERT_TRUE(tl.writeFile(path));
    EXPECT_TRUE(tl.unchangedSinceWrite());
    std::string file = readFile(path);
    EXPECT_GT(file.size(), std::size_t(3) << 20);
    EXPECT_EQ(file, tl.toJson() + "\n");
    tl.instant(t, Name::EngineKill, 5);
    EXPECT_FALSE(tl.unchangedSinceWrite());
    std::remove(path.c_str());
}

/** The export's otherData.recordedEvents. */
std::string
recordedEvents(const std::string &json)
{
    return field(json.substr(json.find("\"otherData\"")),
                 "recordedEvents");
}

TEST(TimelineRun, MachineRunTwiceWritesOneFileCoveringBoth)
{
    std::string path = "timeline_test_twice.json";
    graph::CsrGraph g = graph::gridGraph(12, 12, 100, 1);
    std::string afterFirst, afterSecond, lastExport;
    {
        MachineConfig mc = scaledMachine();
        mc.numCores = 2;
        mc.timelinePath = path;
        runtime::Machine m(mc);
        g.assignAddresses(m.alloc);
        apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
        worklist::ObimWorklist wl(&m, 3, 8, 2);
        galois::RunConfig cfg;
        cfg.threads = 2;

        // The run driver writes the file before its stats snapshot.
        EXPECT_TRUE(galois::runParallel(m, app, wl, cfg).verified);
        afterFirst = readFile(path);
        app.reset();
        EXPECT_TRUE(galois::runParallel(m, app, wl, cfg).verified);
        afterSecond = readFile(path);
        lastExport = m.timeline->toJson() + "\n";
    }
    // The second run rewrote the file to cover both runs, and the
    // Machine's destructor found nothing new to write.
    ASSERT_FALSE(afterFirst.empty());
    EXPECT_EQ(afterSecond, lastExport);
    EXPECT_EQ(readFile(path), lastExport);
    EXPECT_GT(std::stoull(recordedEvents(afterSecond)),
              std::stoull(recordedEvents(afterFirst)));
    std::vector<std::string> first = exportedOrder(afterFirst);
    std::vector<std::string> both = exportedOrder(afterSecond);
    std::sort(first.begin(), first.end());
    std::sort(both.begin(), both.end());
    EXPECT_TRUE(std::includes(both.begin(), both.end(), first.begin(),
                              first.end()));
    std::remove(path.c_str());

    // A Machine that never reaches a run's end still leaves a file.
    {
        MachineConfig mc = scaledMachine();
        mc.numCores = 2;
        mc.timelinePath = path;
        runtime::Machine m(mc);
    }
    EXPECT_NE(readFile(path).find("\"recordedEvents\":0"),
              std::string::npos);
    std::remove(path.c_str());
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

/** A small sssp/minnow-pf run of @p rs; returns its stats JSON. */
std::string
runStats(harness::RunSpec rs)
{
    harness::Workload w = harness::makeWorkload("sssp", 0.02, 1);
    rs.config = harness::Config::MinnowPf;
    rs.threads = 4;
    rs.machine.numCores = 4;
    std::string stats;
    rs.statsHook = [&stats](const StatsRegistry &s) {
        stats = s.toJson();
    };
    harness::runExperiment(w, rs);
    return stats;
}

std::string
runOnce(const std::string &timelinePath)
{
    harness::RunSpec rs;
    rs.machine.timelinePath = timelinePath;
    return runStats(rs);
}

TEST(TimelineRun, DisabledEmitsNoGroupAndNoFile)
{
    std::string stats = runOnce("");
    EXPECT_FALSE(stats.empty());
    EXPECT_EQ(stats.find("\"timeline\":"), std::string::npos);
}

TEST(TimelineRun, EnabledRunsAreByteIdentical)
{
    std::string a = "timeline_test_a.json";
    std::string b = "timeline_test_b.json";
    std::string sa = runOnce(a);
    runOnce(b);

    // The stats snapshot carries the timeline's record counters.
    EXPECT_NE(sa.find("\"timeline\":"), std::string::npos);
    EXPECT_NE(sa.find("\"droppedEvents\":"), std::string::npos);

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
    harness::RunSpec rs;
    rs.machine.timelinePath = path;
    rs.machine.statsSampleInterval = 5000;
    EXPECT_NE(runStats(rs).find("\"timeline\":"), std::string::npos);
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
