#include "sim/timeline.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>

#include "base/json.hh"
#include "sim/event_queue.hh"

namespace minnow::timeline
{

namespace
{

constexpr const char *kCatNames[std::size_t(Cat::kNum)] = {
    "task", "engine", "threadlet", "credit", "worklist", "mem", "sim",
};

constexpr const char *kNameStrings[std::size_t(Name::kNum)] = {
    "task",
    "dequeue",
    "popWait",
    "push",
    "app",
    "worklist",
    "idle",
    "fillBatch",
    "fillDaemon",
    "spillDrain",
    "prefetchTask",
    "prefetchEdge",
    "engineKill",
    "engineStall",
    "engineRecover",
    "tasksRescued",
    "faultPrefetchDrop",
    "faultCreditSwallow",
    "watchdogTrip",
    "diagnostic",
    "creditHandoff",
    "lineage",
    "prefetch",
};

const char *
pidName(std::uint32_t pid)
{
    switch (Pid(pid)) {
      case Pid::Cores: return "cores";
      case Pid::Engines: return "engines";
      case Pid::Threadlets: return "threadlets";
      case Pid::Counters: return "counters";
      case Pid::Phases: return "phases";
      case Pid::Sim: return "sim";
    }
    return "unknown";
}

using json::appendEscaped;
using json::appendNumber;
using json::appendU64;

} // anonymous namespace

const char *
nameString(Name n)
{
    return kNameStrings[std::size_t(n)];
}

Timeline::Timeline(std::uint32_t bufferCap)
    : cap_(bufferCap ? bufferCap : 1)
{
    // Reserved, not filled: pages are touched as records arrive.
    ring_.reserve(cap_);
    simTrack_ = addTrack(Cat::Sim, Pid::Sim, 0, "sim");
}

TrackId
Timeline::addTrack(Cat cat, Pid pid, std::uint32_t tid,
                   std::string name)
{
    tracks_.push_back(Track{cat, std::uint32_t(pid), tid,
                            std::move(name)});
    return TrackId(tracks_.size() - 1);
}

TrackId
Timeline::addCounterTrack(Cat cat, std::string name)
{
    return addTrack(cat, Pid::Counters, counterTid_++,
                    std::move(name));
}

void
Timeline::registerCoreTracks(std::uint32_t numCores)
{
    coreTasks_.resize(numCores, kNoTrack);
    corePhases_.resize(numCores, kNoTrack);
    for (std::uint32_t c = 0; c < numCores; ++c) {
        coreTasks_[c] = addTrack(Cat::Task, Pid::Cores, c,
                                 "core" + std::to_string(c));
        corePhases_[c] =
            addTrack(Cat::Task, Pid::Phases, c,
                     "core" + std::to_string(c) + ".phase");
    }
}

void
Timeline::push(const Record &r)
{
    if (ring_.size() < cap_) {
        ring_.push_back(r);
    } else {
        ++dropped_;
        ring_[head_] = r;
        head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
    }
    ++written_;
}

void
Timeline::span(TrackId t, Name n, Cycle begin, Cycle end)
{
    if (t == kNoTrack)
        return;
    if (end < begin)
        end = begin;
    Record r;
    r.begin = begin;
    r.extra = end;
    r.track = t;
    r.name = std::uint16_t(n);
    r.kind = std::uint8_t(RecKind::Span);
    push(r);
    ++spans_;
}

void
Timeline::instant(TrackId t, Name n, Cycle at)
{
    if (t == kNoTrack)
        return;
    Record r;
    r.begin = at;
    r.extra = at;
    r.track = t;
    r.name = std::uint16_t(n);
    r.kind = std::uint8_t(RecKind::Instant);
    push(r);
    ++instants_;
}

void
Timeline::counter(TrackId t, Cycle at, double value)
{
    if (t == kNoTrack)
        return;
    Record r;
    r.begin = at;
    r.extra = std::bit_cast<std::uint64_t>(value);
    r.track = t;
    r.name = 0;
    r.kind = std::uint8_t(RecKind::Counter);
    push(r);
    ++counterRecs_;
}

void
Timeline::flowRec(TrackId t, Name n, Cycle at, std::uint64_t id,
                  RecKind kind)
{
    if (t == kNoTrack)
        return;
    Record r;
    r.begin = at;
    r.extra = id;
    r.track = t;
    r.name = std::uint16_t(n);
    r.kind = std::uint8_t(kind);
    push(r);
    ++flowRecs_;
}

void
Timeline::flowStart(TrackId t, Name n, Cycle at, std::uint64_t id)
{
    flowRec(t, n, at, id, RecKind::FlowStart);
}

void
Timeline::flowStep(TrackId t, Name n, Cycle at, std::uint64_t id)
{
    flowRec(t, n, at, id, RecKind::FlowStep);
}

void
Timeline::flowEnd(TrackId t, Name n, Cycle at, std::uint64_t id)
{
    flowRec(t, n, at, id, RecKind::FlowEnd);
}

void
Timeline::addCounterProvider(Cat cat, const std::string &name,
                             const void *owner,
                             std::function<double()> fn)
{
    Provider p;
    p.track = addCounterTrack(cat, name);
    p.owner = owner;
    p.fn = std::move(fn);
    providers_.push_back(std::move(p));
}

void
Timeline::removeProviders(const void *owner)
{
    std::erase_if(providers_, [owner](const Provider &p) {
        return p.owner == owner;
    });
}

void
Timeline::startSampling(EventQueue &eq)
{
    if (sampler_)
        return; // already armed.
    sampler_ = std::make_unique<Sampler>();
    sampler_->tl = this;
    sampler_->eq = &eq;
    eq.daemonScheduled();
    eq.schedule(eq.now() + kSampleInterval, &Timeline::sampleEvent,
                sampler_.get());
}

void
Timeline::sampleEvent(void *arg)
{
    auto *s = static_cast<Sampler *>(arg);
    s->eq->daemonFired();
    s->tl->pollProviders(s->eq->now());
    // Re-arm only while non-daemon work remains: against empty()
    // alone, this sampler and any other periodic daemon (stats
    // sampler, watchdog) would keep each other alive forever.
    if (!s->eq->quiescent()) {
        s->eq->daemonScheduled();
        s->eq->schedule(s->eq->now() + kSampleInterval,
                        &Timeline::sampleEvent, s);
    }
}

void
Timeline::pollProviders(Cycle at)
{
    for (Provider &p : providers_) {
        double v = p.fn();
        // NaN means "no sample yet" (windowed providers return it
        // until one full window has elapsed); note NaN == last is
        // always false, so this must be an explicit skip.
        if (std::isnan(v))
            continue;
        if (p.hasLast && v == p.last)
            continue; // unchanged: the flat line is implied.
        p.last = v;
        p.hasLast = true;
        counter(p.track, at, v);
    }
}

void
Timeline::registerStats(StatsRegistry &reg)
{
    statsClaim_ = StatsClaim(reg, "timeline");
    StatsGroup &g = reg.freshGroup("timeline");
    g.formula("events", "total records emitted",
              [this] { return double(written_); });
    g.formula("spans", "span records emitted",
              [this] { return double(spans_); });
    g.formula("instants", "instant records emitted",
              [this] { return double(instants_); });
    g.formula("counterSamples", "counter records emitted",
              [this] { return double(counterRecs_); });
    g.formula("flowLegs", "flow-arrow leg records emitted",
              [this] { return double(flowRecs_); });
    g.formula("droppedEvents", "oldest records lost to ring wrap",
              [this] { return double(dropped_); });
    g.formula("bufferCapacity", "ring capacity in records",
              [this] { return double(cap_); });
}

std::size_t
Timeline::recorded() const
{
    return ring_.size();
}

std::string
Timeline::toJson() const
{
    json::ChunkSink sink(nullptr);
    exportTo(sink);
    return std::move(sink.buf);
}

bool
Timeline::writeFile(const std::string &path)
{
    fileRecords_ = written_;
    fileTracks_ = tracks_.size();
    return json::writeFile(path, [this](json::ChunkSink &sink) {
        exportTo(sink);
        sink.buf += '\n';
    });
}

bool
Timeline::unchangedSinceWrite() const
{
    return written_ == fileRecords_ && tracks_.size() == fileTracks_;
}

void
Timeline::exportTo(json::ChunkSink &sink) const
{
    const std::size_t count = ring_.size();
    const std::size_t numTracks = tracks_.size();
    // Segments: 2t is track t's spans (its B/E stream), 2t+1 its
    // instants and counters, and the last one the legs of complete
    // flows. Track ids follow registration order, so this is
    // deterministic.
    const std::size_t numSegs = 2 * numTracks + 1;
    const std::size_t flowSeg = numSegs - 1;
    auto segOf = [&](const Record &r) -> std::size_t {
        switch (RecKind(r.kind)) {
          case RecKind::Span: return 2 * std::size_t(r.track);
          case RecKind::Instant:
          case RecKind::Counter: return 2 * std::size_t(r.track) + 1;
          default: return flowSeg;
        }
    };
    // The oldest record sits at head_ (slot 0 until the ring wraps);
    // age() is a slot's emission order among the surviving records.
    auto age = [&](std::uint32_t p) {
        return p >= head_ ? p - head_ : p + count - head_;
    };

    // One ring slot per record, grouped by segment with a counting
    // sort so that each segment starts out in emission order: segment
    // s is idx[start[s], start[s + 1]).
    std::vector<std::uint32_t> start(numSegs + 1, 0);
    for (const Record &r : ring_)
        ++start[segOf(r) + 1];
    for (std::size_t s = 0; s < numSegs; ++s)
        start[s + 1] += start[s];
    std::vector<std::uint32_t> idx(count);
    {
        std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
        auto place = [&](std::size_t from, std::size_t to) {
            for (std::size_t p = from; p < to; ++p)
                idx[fill[segOf(ring_[p])]++] = std::uint32_t(p);
        };
        place(head_, count);
        place(0, head_);
    }
    auto seg = [&](std::size_t s) {
        return std::pair(idx.begin() + start[s],
                         idx.begin() + start[s + 1]);
    };

    for (TrackId t = 0; t < numTracks; ++t) {
        // Spans on one track nest by construction. Sorted by begin,
        // longer first, then emission order, the merge's stack walk
        // below opens an inner span sharing its begin cycle with its
        // enclosing span second and closes it first (a naive sort by
        // timestamp alone would cross the pairs).
        auto [sb, se] = seg(2 * t);
        std::sort(sb, se, [&](std::uint32_t a, std::uint32_t b) {
            const Record &x = ring_[a], &y = ring_[b];
            if (x.begin != y.begin)
                return x.begin < y.begin;
            if (x.extra != y.extra)
                return x.extra > y.extra;
            return age(a) < age(b);
        });
        // Instants and counters: stably by ts.
        auto [ob, oe] = seg(2 * t + 1);
        auto byTs = [&](std::uint32_t a, std::uint32_t b) {
            return ring_[a].begin < ring_[b].begin;
        };
        if (!std::is_sorted(ob, oe, byTs)) {
            std::sort(ob, oe, [&](std::uint32_t a, std::uint32_t b) {
                const Record &x = ring_[a], &y = ring_[b];
                if (x.begin != y.begin)
                    return x.begin < y.begin;
                return age(a) < age(b);
            });
        }
    }

    // Flow arrows: group legs by id and keep only complete flows —
    // at least one start and one end, start earliest and end latest
    // after ordering by (ts, kind, emission order). A leg lost to
    // ring wrap (or a never-terminated flow) drops the whole id, so
    // the export can never contain a dangling 's'.
    {
        auto [fb, fe] = seg(flowSeg);
        std::sort(fb, fe, [&](std::uint32_t a, std::uint32_t b) {
            const Record &x = ring_[a], &y = ring_[b];
            if (x.extra != y.extra)
                return x.extra < y.extra;
            if (x.begin != y.begin)
                return x.begin < y.begin;
            if (x.kind != y.kind)
                return x.kind < y.kind;
            return age(a) < age(b);
        });
        auto kindOf = [&](auto it) { return RecKind(ring_[*it].kind); };
        auto keep = fb;
        for (auto i = fb; i != fe;) {
            auto j = i;
            while (j != fe && ring_[*j].extra == ring_[*i].extra)
                ++j;
            bool complete = kindOf(i) == RecKind::FlowStart &&
                            kindOf(j - 1) == RecKind::FlowEnd;
            for (auto k = i + 1; complete && k < j - 1; ++k)
                complete = kindOf(k) == RecKind::FlowStep;
            if (complete)
                keep = keep == i ? j : std::copy(i, j, keep);
            i = j;
        }
        start[numSegs] = std::uint32_t(keep - idx.begin());
        // Stably by ts over the (id, ts, kind, emission) order.
        std::sort(fb, keep, [&](std::uint32_t a, std::uint32_t b) {
            const Record &x = ring_[a], &y = ring_[b];
            if (x.begin != y.begin)
                return x.begin < y.begin;
            if (x.extra != y.extra)
                return x.extra < y.extra;
            if (x.kind != y.kind)
                return x.kind < y.kind;
            return age(a) < age(b);
        });
    }

    std::string &out = sink.buf;
    out += "{\"schema\":\"minnow-timeline-1\","
           "\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out += ',';
        first = false;
    };

    // Metadata first: name the processes and threads so Perfetto
    // shows "cores / core3" instead of bare numbers.
    std::vector<std::uint32_t> pids;
    for (const Track &tr : tracks_) {
        if (std::find(pids.begin(), pids.end(), tr.pid) == pids.end())
            pids.push_back(tr.pid);
    }
    std::sort(pids.begin(), pids.end());
    for (std::uint32_t pid : pids) {
        sep();
        out += "{\"ph\":\"M\",\"pid\":";
        appendU64(out, pid);
        out += ",\"name\":\"process_name\",\"args\":{\"name\":\"";
        appendEscaped(out, pidName(pid));
        out += "\"}}";
        sep();
        out += "{\"ph\":\"M\",\"pid\":";
        appendU64(out, pid);
        out += ",\"name\":\"process_sort_index\",\"args\":"
               "{\"sort_index\":";
        appendU64(out, pid);
        out += "}}";
    }
    for (const Track &tr : tracks_) {
        sep();
        out += "{\"ph\":\"M\",\"pid\":";
        appendU64(out, tr.pid);
        out += ",\"tid\":";
        appendU64(out, tr.tid);
        out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        appendEscaped(out, tr.name);
        out += "\"}}";
        sep();
        out += "{\"ph\":\"M\",\"pid\":";
        appendU64(out, tr.pid);
        out += ",\"tid\":";
        appendU64(out, tr.tid);
        out += ",\"name\":\"thread_sort_index\",\"args\":"
               "{\"sort_index\":";
        appendU64(out, tr.tid);
        out += "}}";
        sink.poll();
    }

    // One event: ph selects the JSON shape; arg is a counter's value
    // bits or a flow leg's id.
    auto emit = [&](char ph, TrackId track, Cycle ts, std::uint16_t name,
                    std::uint64_t arg) {
        const Track &tr = tracks_[track];
        sep();
        out += "{\"ph\":\"";
        out += ph;
        out += "\",\"pid\":";
        appendU64(out, tr.pid);
        out += ",\"tid\":";
        appendU64(out, tr.tid);
        out += ",\"ts\":";
        appendU64(out, ts);
        switch (ph) {
          case 'B':
            out += ",\"name\":\"";
            appendEscaped(out, kNameStrings[name]);
            out += "\",\"cat\":\"";
            out += kCatNames[std::size_t(tr.cat)];
            out += '"';
            break;
          case 'i':
            out += ",\"name\":\"";
            appendEscaped(out, kNameStrings[name]);
            out += "\",\"cat\":\"";
            out += kCatNames[std::size_t(tr.cat)];
            out += "\",\"s\":\"t\"";
            break;
          case 'C':
            out += ",\"name\":\"";
            appendEscaped(out, tr.name);
            out += "\",\"args\":{\"value\":";
            appendNumber(out, std::bit_cast<double>(arg));
            out += '}';
            break;
          case 's':
          case 't':
          case 'f':
            out += ",\"name\":\"";
            appendEscaped(out, kNameStrings[name]);
            out += "\",\"cat\":\"";
            out += kCatNames[std::size_t(tr.cat)];
            out += "\",\"id\":";
            appendU64(out, arg);
            if (ph == 'f')
                out += ",\"bp\":\"e\"";
            break;
          default: // 'E' carries no name.
            break;
        }
        out += '}';
        sink.poll();
    };

    // Merge cursors: pos[s] is segment s's next index, and open[t]
    // holds the (clamped) end cycles of track t's open spans,
    // innermost last. A B/E stream's next event is the innermost
    // span's E when it ends by the next span's begin, else that
    // span's B.
    std::vector<std::uint32_t> pos(start.begin(), start.end() - 1);
    std::vector<std::vector<Cycle>> open(numTracks);
    auto isBE = [&](std::size_t s) { return s != flowSeg && s % 2 == 0; };
    auto nextIsE = [&](std::size_t s) {
        const std::vector<Cycle> &st = open[s / 2];
        return !st.empty() && (pos[s] == start[s + 1] ||
                               st.back() <= ring_[idx[pos[s]]].begin);
    };
    // The next event's ts in @p ts; false once segment s is drained.
    auto peek = [&](std::size_t s, Cycle &ts) {
        if (isBE(s) && nextIsE(s)) {
            ts = open[s / 2].back();
            return true;
        }
        if (pos[s] == start[s + 1])
            return false;
        ts = ring_[idx[pos[s]]].begin;
        return true;
    };
    static constexpr char kPh[] = {'B', 'i', 'C', 's', 't', 'f'};
    auto advance = [&](std::size_t s) {
        if (isBE(s) && nextIsE(s)) {
            std::vector<Cycle> &st = open[s / 2];
            emit('E', TrackId(s / 2), st.back(), 0, 0);
            st.pop_back();
            return;
        }
        const Record &r = ring_[idx[pos[s]++]];
        if (isBE(s)) {
            // Emit sites produce properly nested spans per track;
            // clamp defensively so a buggy site can never make the
            // export Perfetto-rejectable.
            std::vector<Cycle> &st = open[s / 2];
            st.push_back(st.empty() ? Cycle(r.extra)
                                    : std::min(Cycle(r.extra), st.back()));
        }
        emit(kPh[r.kind], r.track, r.begin, r.name, r.extra);
    };

    // Heap-merge the segments by (ts, segment index). The popped
    // segment keeps emitting while its next event still orders
    // before the heap's top.
    using Head = std::pair<Cycle, std::size_t>;
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
    Cycle ts = 0;
    for (std::size_t s = 0; s < numSegs; ++s) {
        if (peek(s, ts))
            heap.push({ts, s});
    }
    while (!heap.empty()) {
        const std::size_t s = heap.top().second;
        heap.pop();
        bool more;
        do {
            advance(s);
            more = peek(s, ts);
        } while (more && (heap.empty() || Head{ts, s} < heap.top()));
        if (more)
            heap.push({ts, s});
    }

    out += "],\"otherData\":{\"droppedEvents\":";
    appendU64(out, dropped_);
    out += ",\"recordedEvents\":";
    appendU64(out, std::uint64_t(count));
    out += ",\"capacity\":";
    appendU64(out, std::uint64_t(cap_));
    out += "}}";
}

} // namespace minnow::timeline
