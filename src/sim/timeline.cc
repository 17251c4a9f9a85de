#include "sim/timeline.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>

#include "base/json.hh"
#include "base/logging.hh"
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
    "specDeposit",
    "specReclaim",
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

std::uint32_t
allCats()
{
    return (1u << std::uint32_t(Cat::kNum)) - 1;
}

std::uint32_t
parseTracks(const std::string &csv)
{
    if (csv.empty())
        return allCats();
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        std::string tok = csv.substr(pos, comma - pos);
        pos = comma + 1;
        // Trim surrounding whitespace (mirrors trace::enableList).
        while (!tok.empty() &&
               std::isspace(static_cast<unsigned char>(tok.front())))
            tok.erase(tok.begin());
        while (!tok.empty() &&
               std::isspace(static_cast<unsigned char>(tok.back())))
            tok.pop_back();
        if (tok.empty())
            continue;
        if (tok == "all")
            return allCats();
        bool found = false;
        for (std::size_t c = 0; c < std::size_t(Cat::kNum); ++c) {
            if (tok == kCatNames[c]) {
                mask |= 1u << c;
                found = true;
                break;
            }
        }
        fatal_if(!found,
                 "unknown --timeline-tracks category '%s' (valid: "
                 "task,engine,threadlet,credit,worklist,mem,sim,all)",
                 tok.c_str());
    }
    return mask ? mask : allCats();
}

Timeline::Timeline(std::size_t bufferCap, std::uint32_t catMask)
    : catMask_(catMask), ring_(bufferCap ? bufferCap : 1)
{
    simTrack_ = addTrack(Cat::Sim, Pid::Sim, 0, "sim");
}

TrackId
Timeline::addTrack(Cat cat, Pid pid, std::uint32_t tid,
                   std::string name)
{
    if (!wants(cat))
        return kNoTrack;
    tracks_.push_back(Track{cat, std::uint32_t(pid), tid,
                            std::move(name)});
    return TrackId(tracks_.size() - 1);
}

TrackId
Timeline::addCounterTrack(Cat cat, std::string name)
{
    if (!wants(cat))
        return kNoTrack;
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
    if (written_ >= ring_.size())
        ++dropped_;
    ring_[head_] = r;
    head_ = (head_ + 1) % ring_.size();
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
    TrackId t = addCounterTrack(cat, name);
    if (t == kNoTrack)
        return;
    Provider p;
    p.track = t;
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
Timeline::startSampling(EventQueue &eq, Cycle interval)
{
    fatal_if(interval == 0, "timeline sampling interval must be > 0");
    if (sampler_)
        return; // already armed.
    sampler_ = std::make_unique<Sampler>();
    sampler_->tl = this;
    sampler_->eq = &eq;
    sampler_->interval = interval;
    eq.daemonScheduled();
    eq.schedule(eq.now() + interval, &Timeline::sampleEvent,
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
        s->eq->schedule(s->eq->now() + s->interval,
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
    statsReg_ = &reg;
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
              [this] { return double(ring_.size()); });
}

std::size_t
Timeline::recorded() const
{
    return std::size_t(std::min<std::uint64_t>(written_,
                                               ring_.size()));
}

namespace
{

/** One export event: ph selects the JSON shape. */
struct Ev
{
    Cycle ts;
    std::uint64_t arg; //!< counter value bits; flow id for s/t/f.
    TrackId track;
    std::uint16_t name;
    char ph; //!< 'B', 'E', 'i', 'C', 's', 't' or 'f'.
};

} // anonymous namespace

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
    struct SpanRec
    {
        Cycle begin;
        Cycle end;
        std::uint64_t idx; // emission order, tie-break.
        std::uint16_t name;
    };
    struct FlowLeg
    {
        Cycle ts;
        std::uint64_t id;
        std::uint64_t idx;
        TrackId track;
        std::uint16_t name;
        std::uint8_t kind; // 0 start, 1 step, 2 end.
    };

    const std::size_t count = recorded();
    const std::size_t oldest = written_ > ring_.size() ? head_ : 0;
    const std::size_t numTracks = tracks_.size();

    // Segments: 2t is track t's B/E stream, 2t+1 its instants and
    // counters, and the last one the legs of complete flows. Track
    // ids follow registration order, so this is deterministic.
    std::vector<std::vector<Ev>> segs(2 * numTracks + 1);
    std::vector<Ev> &flowSeg = segs.back();
    std::vector<std::vector<SpanRec>> spansBy(numTracks);
    std::vector<FlowLeg> flowLegs;
    for (std::size_t i = 0; i < count; ++i) {
        const Record &r = ring_[(oldest + i) % ring_.size()];
        switch (RecKind(r.kind)) {
          case RecKind::Span:
            spansBy[r.track].push_back(
                SpanRec{r.begin, Cycle(r.extra), i, r.name});
            break;
          case RecKind::Instant:
            segs[2 * r.track + 1].push_back(
                Ev{r.begin, 0, r.track, r.name, 'i'});
            break;
          case RecKind::Counter:
            segs[2 * r.track + 1].push_back(
                Ev{r.begin, r.extra, r.track, 0, 'C'});
            break;
          case RecKind::FlowStart:
          case RecKind::FlowStep:
          case RecKind::FlowEnd:
            flowLegs.push_back(FlowLeg{
                r.begin, r.extra, i, r.track, r.name,
                std::uint8_t(std::uint8_t(r.kind) -
                             std::uint8_t(RecKind::FlowStart))});
            break;
        }
    }

    std::vector<SpanRec> stack;
    for (TrackId t = 0; t < numTracks; ++t) {
        // Spans on one track nest by construction; rebuild the B/E
        // stream with an explicit stack so that an inner span sharing
        // its begin cycle with its enclosing span still opens second
        // and closes first (a naive sort by timestamp alone would
        // cross the pairs).
        auto &sp = spansBy[t];
        std::sort(sp.begin(), sp.end(),
                  [](const SpanRec &a, const SpanRec &b) {
                      if (a.begin != b.begin)
                          return a.begin < b.begin;
                      if (a.end != b.end)
                          return a.end > b.end;
                      return a.idx < b.idx;
                  });
        std::vector<Ev> &be = segs[2 * t];
        be.reserve(2 * sp.size());
        for (const SpanRec &s : sp) {
            while (!stack.empty() && stack.back().end <= s.begin) {
                be.push_back(Ev{stack.back().end, 0, t, 0, 'E'});
                stack.pop_back();
            }
            SpanRec cur = s;
            // Emit sites produce properly nested spans per track;
            // clamp defensively so a buggy site can never make the
            // export Perfetto-rejectable.
            if (!stack.empty() && cur.end > stack.back().end)
                cur.end = stack.back().end;
            be.push_back(Ev{cur.begin, 0, t, cur.name, 'B'});
            stack.push_back(cur);
        }
        while (!stack.empty()) {
            be.push_back(Ev{stack.back().end, 0, t, 0, 'E'});
            stack.pop_back();
        }
        std::vector<SpanRec>().swap(sp);
    }
    // Flow arrows: group legs by id and emit only complete flows —
    // at least one start and one end, start earliest and end latest
    // after ordering by (ts, kind, emission order). A leg lost to
    // ring wrap (or a never-terminated flow) drops the whole id, so
    // the export can never contain a dangling 's'.
    std::sort(flowLegs.begin(), flowLegs.end(),
              [](const FlowLeg &a, const FlowLeg &b) {
                  if (a.id != b.id)
                      return a.id < b.id;
                  if (a.ts != b.ts)
                      return a.ts < b.ts;
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  return a.idx < b.idx;
              });
    static constexpr char kFlowPh[] = {'s', 't', 'f'};
    for (std::size_t i = 0; i < flowLegs.size();) {
        std::size_t j = i;
        while (j < flowLegs.size() &&
               flowLegs[j].id == flowLegs[i].id)
            ++j;
        bool complete = flowLegs[i].kind == 0 &&
                        flowLegs[j - 1].kind == 2;
        for (std::size_t k = i + 1; complete && k < j - 1; ++k)
            complete = flowLegs[k].kind == 1;
        if (complete) {
            for (std::size_t k = i; k < j; ++k) {
                const FlowLeg &l = flowLegs[k];
                flowSeg.push_back(
                    Ev{l.ts, l.id, l.track, l.name, kFlowPh[l.kind]});
            }
        }
        i = j;
    }
    std::vector<FlowLeg>().swap(flowLegs);

    // The output order is (ts, segment, position in segment): that
    // of a stable sort by ts over the segments concatenated in
    // index order. B/E streams come out of the stack walk sorted;
    // the instant/counter streams are in emission order and the
    // flow segment in id order, so those are stably sorted first.
    auto byTs = [](const Ev &a, const Ev &b) { return a.ts < b.ts; };
    for (std::vector<Ev> &seg : segs) {
        if (!std::is_sorted(seg.begin(), seg.end(), byTs))
            std::stable_sort(seg.begin(), seg.end(), byTs);
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

    auto emit = [&](const Ev &e) {
        const Track &tr = tracks_[e.track];
        sep();
        out += "{\"ph\":\"";
        out += e.ph;
        out += "\",\"pid\":";
        appendU64(out, tr.pid);
        out += ",\"tid\":";
        appendU64(out, tr.tid);
        out += ",\"ts\":";
        appendU64(out, e.ts);
        switch (e.ph) {
          case 'B':
            out += ",\"name\":\"";
            appendEscaped(out, kNameStrings[e.name]);
            out += "\",\"cat\":\"";
            out += kCatNames[std::size_t(tr.cat)];
            out += '"';
            break;
          case 'i':
            out += ",\"name\":\"";
            appendEscaped(out, kNameStrings[e.name]);
            out += "\",\"cat\":\"";
            out += kCatNames[std::size_t(tr.cat)];
            out += "\",\"s\":\"t\"";
            break;
          case 'C':
            out += ",\"name\":\"";
            appendEscaped(out, tr.name);
            out += "\",\"args\":{\"value\":";
            appendNumber(out, std::bit_cast<double>(e.arg));
            out += '}';
            break;
          case 's':
          case 't':
          case 'f':
            out += ",\"name\":\"";
            appendEscaped(out, kNameStrings[e.name]);
            out += "\",\"cat\":\"";
            out += kCatNames[std::size_t(tr.cat)];
            out += "\",\"id\":";
            appendU64(out, e.arg);
            if (e.ph == 'f')
                out += ",\"bp\":\"e\"";
            break;
          default: // 'E' carries no name.
            break;
        }
        out += '}';
        sink.poll();
    };

    // Heap-merge the segments by (ts, segment index). The popped
    // segment keeps emitting while its next event still orders
    // before the heap's top; a drained segment is freed at once.
    using Head = std::pair<Cycle, std::size_t>;
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
    for (std::size_t s = 0; s < segs.size(); ++s) {
        if (!segs[s].empty())
            heap.push({segs[s].front().ts, s});
    }
    std::vector<std::size_t> next(segs.size(), 0);
    while (!heap.empty()) {
        const std::size_t s = heap.top().second;
        heap.pop();
        std::vector<Ev> &seg = segs[s];
        std::size_t &i = next[s];
        do {
            emit(seg[i++]);
        } while (i < seg.size() &&
                 (heap.empty() || Head{seg[i].ts, s} < heap.top()));
        if (i < seg.size())
            heap.push({seg[i].ts, s});
        else
            std::vector<Ev>().swap(seg);
    }

    out += "],\"otherData\":{\"droppedEvents\":";
    appendU64(out, dropped_);
    out += ",\"recordedEvents\":";
    appendU64(out, std::uint64_t(count));
    out += ",\"capacity\":";
    appendU64(out, std::uint64_t(ring_.size()));
    out += "}}";
}

} // namespace minnow::timeline
