/**
 * @file
 * Simulated-time timeline tracing (--timeline=FILE).
 *
 * A ring-buffer-backed event sink recording what every core, engine
 * and threadlet slot was doing at each simulated cycle:
 *
 *  - span events: task execution per core, worklist pop/push
 *    latency, engine front-end ops, threadlet lifetimes, per-core
 *    phase residency,
 *  - instant events: faults injected, watchdog trips, engine
 *    kill/stall/recovery,
 *  - counter tracks: per-engine prefetch credits (event-driven) plus
 *    sampled providers (global/local worklist depth, windowed L2
 *    MPKI, tracked prefetch lines, OBIM minimum bucket) polled every
 *    --timeline-interval cycles off the EventQueue.
 *
 * Every record is stamped with the EventQueue cycle and a stable
 * track id (see DESIGN.md 5f for the pid/tid scheme). The whole
 * buffer exports as Chrome trace_event JSON ("minnow-timeline-1")
 * loadable in Perfetto / chrome://tracing.
 *
 * Memory is bounded: the ring holds --timeline-buffer records (32 B
 * each); on wrap the oldest records are dropped and counted in
 * droppedEvents — never silently. Because a span becomes one record
 * only when it *completes*, dropping whole records can never leave an
 * unbalanced begin/end pair in the export.
 *
 * The export streams. It splits the surviving records into
 * segments — per track, the B/E stream rebuilt from its spans and
 * the instant/counter stream; then one segment of complete flow
 * legs — and heap-merges them by (ts, segment index) straight into
 * a ~1 MiB chunk that is written to the file each time it fills.
 * That order is exactly a stable sort by ts of the segments
 * concatenated in index order. Export memory is the ring plus the
 * segments (24 B per exported event; each track's span list is
 * freed once its B/E segment is built, each segment once merged)
 * plus one chunk; the trace text is never whole in memory.
 * toJson() runs the same path into one string.
 *
 * The Machine writes the file once per run, before it snapshots the
 * stats JSON, so the export's buffers and the stats string are
 * never alive together; its destructor writes it again only if the
 * trace changed since (see Machine::writeTimeline()).
 *
 * Overhead contract: with --timeline unset no Timeline exists and
 * every emit site costs one pointer null-check; the sampler arms no
 * events and no stats group is registered.
 *
 * Determinism: records carry only simulated cycles and values derived
 * from simulated state, tracks are registered in construction order,
 * and the JSON writer formats numbers with a fixed grammar — two runs
 * with the same seed produce byte-identical trace files.
 */

#ifndef MINNOW_SIM_TIMELINE_HH
#define MINNOW_SIM_TIMELINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"

namespace minnow
{
class EventQueue;
}

namespace minnow::timeline
{

/** Event categories, selectable via --timeline-tracks=task,credit. */
enum class Cat : std::uint8_t
{
    Task = 0,  //!< core-side task/pop/push spans + phase residency.
    Engine,    //!< engine front-end ops and fault instants.
    Threadlet, //!< threadlet lifetime spans per slot lane.
    Credit,    //!< per-engine prefetch-credit counter tracks.
    Worklist,  //!< worklist depth / OBIM bucket counter tracks.
    Mem,       //!< windowed MPKI and tracked-prefetch-line counters.
    Sim,       //!< watchdog trips, injected faults, diagnostics.
    kNum,
};

/** All categories enabled. */
std::uint32_t allCats();

/**
 * Parse a --timeline-tracks list ("task,engine,credit") into a
 * category bitmask; empty or "all" enables everything, an unknown
 * token is fatal().
 */
std::uint32_t parseTracks(const std::string &csv);

/** Trace processes grouping related tracks in the Perfetto UI. */
enum class Pid : std::uint32_t
{
    Cores = 1,      //!< per-core task/pop/push spans.
    Engines = 2,    //!< per-engine front-end tracks.
    Threadlets = 3, //!< threadlet slot lanes.
    Counters = 4,   //!< all counter tracks.
    Phases = 5,     //!< per-core phase residency spans.
    Sim = 6,        //!< watchdog / fault instants.
};

/** Interned event names (the JSON writer maps them to strings). */
enum class Name : std::uint16_t
{
    Task = 0,    //!< one operator execution on a core.
    Dequeue,     //!< pop/dequeue operation (call to delivery).
    PopWait,     //!< worker parked waiting for work.
    Push,        //!< push/enqueue operation.
    PhaseApp,    //!< core phase residency spans.
    PhaseWorklist,
    PhaseIdle,
    FillBatch,   //!< engine daemon pulled one global-queue batch.
    FillDaemon,  //!< threadlet lifetimes.
    SpillDrain,
    PrefetchTask,
    PrefetchEdge,
    EngineKill,  //!< instants.
    EngineStall,
    EngineRecover,
    TasksRescued,
    FaultPrefetchDrop,
    FaultCreditSwallow,
    WatchdogTrip,
    Diagnostic,
    CreditHandoff, //!< credit returned straight to a waiter.
    SpecDeposit,   //!< engine deposited a task in a core slot.
    SpecReclaim,   //!< spec-slot task reclaimed by rescue/kill.
    LineageFlow,   //!< parent push -> child dequeue flow arrow.
    PrefetchFlow,  //!< prefetch issue -> fill -> demand-use arrow.
    kNum,
};

/** Display string for @p n ("task", "prefetchEdge", ...). */
const char *nameString(Name n);

using TrackId = std::uint32_t;

/** Returned for tracks whose category is filtered out: emitting to
 *  it is a cheap no-op, so emit sites need no mask checks. */
constexpr TrackId kNoTrack = 0xffffffffu;

/** One simulated-time trace sink (owned by the Machine). */
class Timeline
{
  public:
    /**
     * @param bufferCap ring capacity in records (>= 1).
     * @param catMask   bitmask over Cat (see parseTracks()).
     */
    Timeline(std::size_t bufferCap, std::uint32_t catMask);

    Timeline(const Timeline &) = delete;
    Timeline &operator=(const Timeline &) = delete;

    ~Timeline()
    {
        // The "timeline" formulas capture `this`; drop them before
        // the timeline dies (the registry may outlive us).
        if (statsReg_)
            statsReg_->removeGroup("timeline");
    }

    /** Clock used to stamp counter samples (the EventQueue's now). */
    void bindClock(const Cycle *now) { now_ = now; }

    Cycle now() const { return now_ ? *now_ : 0; }

    bool
    wants(Cat c) const
    {
        return catMask_ & (1u << std::uint32_t(c));
    }

    // ---- track registry ----

    /**
     * Register a track; returns kNoTrack when the category is
     * disabled. @p tid must be unique within @p pid for span tracks
     * (spans on one (pid,tid) must nest); counter tracks are keyed
     * by name and get their tid assigned by the caller for display
     * ordering only.
     */
    TrackId addTrack(Cat cat, Pid pid, std::uint32_t tid,
                     std::string name);

    /** Register a counter track under Pid::Counters; the tid (display
     *  order in the UI) is the registration sequence number. */
    TrackId addCounterTrack(Cat cat, std::string name);

    /** Pre-register "core<N>" task and phase tracks. */
    void registerCoreTracks(std::uint32_t numCores);

    TrackId
    coreTaskTrack(CoreId c) const
    {
        return c < coreTasks_.size() ? coreTasks_[c] : kNoTrack;
    }

    TrackId
    corePhaseTrack(CoreId c) const
    {
        return c < corePhases_.size() ? corePhases_[c] : kNoTrack;
    }

    /** Shared instant track for watchdog/fault/diagnostic events. */
    TrackId simTrack() const { return simTrack_; }

    // ---- emission ----

    /** Record a completed span [begin, end] (end >= begin). */
    void span(TrackId t, Name n, Cycle begin, Cycle end);

    /** Record an instantaneous event. */
    void instant(TrackId t, Name n, Cycle at);

    /** Record a counter value change/sample. */
    void counter(TrackId t, Cycle at, double value);

    // Flow arrows (Chrome ph "s"/"t"/"f"). All legs of one arrow
    // share @p id; the exporter only emits ids with at least one
    // start and one end, so a leg lost to ring wrap can never leave
    // a dangling arrow in the file. Legs bind to the span enclosing
    // (track, at) in Perfetto.

    /** Record the start leg of flow @p id. */
    void flowStart(TrackId t, Name n, Cycle at, std::uint64_t id);

    /** Record an intermediate leg of flow @p id. */
    void flowStep(TrackId t, Name n, Cycle at, std::uint64_t id);

    /** Record the terminating leg of flow @p id. */
    void flowEnd(TrackId t, Name n, Cycle at, std::uint64_t id);

    // ---- sampled counter providers ----

    /**
     * Register a counter polled by the sampler; @p owner tags the
     * provider for removeProviders() (components whose lifetime ends
     * before the Timeline's must deregister). Values are emitted
     * only when they change. No-op when @p cat is disabled.
     */
    void addCounterProvider(Cat cat, const std::string &name,
                            const void *owner,
                            std::function<double()> fn);

    /** Drop every provider registered with @p owner. */
    void removeProviders(const void *owner);

    /**
     * Poll the providers every @p interval cycles, driven by events
     * on @p eq. Like stats sampling, the sampler re-arms only while
     * other events remain pending, so it never keeps a drained
     * simulation alive.
     */
    void startSampling(EventQueue &eq, Cycle interval);

    /** Register the "timeline" stats group (record counters). */
    void registerStats(StatsRegistry &reg);

    // ---- export / inspection ----

    /** Chrome trace_event JSON (schema "minnow-timeline-1"). */
    std::string toJson() const;

    /**
     * Stream the export to @p path, then a newline: the bytes of
     * toJson() + "\n". False on I/O error.
     */
    bool writeFile(const std::string &path);

    /** True once writeFile() was called and nothing was recorded
     *  or registered since: another write would repeat it. */
    bool unchangedSinceWrite() const;

    /** Records currently held (<= capacity). */
    std::size_t recorded() const;

    std::size_t capacity() const { return ring_.size(); }

    /** Oldest records overwritten by ring wrap. */
    std::uint64_t dropped() const { return dropped_; }

    std::uint64_t spans() const { return spans_; }
    std::uint64_t instants() const { return instants_; }
    std::uint64_t counterSamples() const { return counterRecs_; }
    std::uint64_t flowLegs() const { return flowRecs_; }

  private:
    enum class RecKind : std::uint8_t
    {
        Span = 0,
        Instant,
        Counter,
        FlowStart,
        FlowStep,
        FlowEnd,
    };

    /** One ring slot; 32 bytes. For Counter records `extra` holds
     *  the value's bit pattern instead of an end cycle; for Flow
     *  records it holds the flow id. */
    struct Record
    {
        Cycle begin = 0;
        std::uint64_t extra = 0;
        TrackId track = 0;
        std::uint16_t name = 0;
        std::uint8_t kind = 0;
    };

    struct Track
    {
        Cat cat;
        std::uint32_t pid;
        std::uint32_t tid;
        std::string name;
    };

    struct Provider
    {
        TrackId track;
        const void *owner;
        std::function<double()> fn;
        double last = 0;
        bool hasLast = false;
    };

    struct Sampler
    {
        Timeline *tl = nullptr;
        EventQueue *eq = nullptr;
        Cycle interval = 0;
    };

    /** Format the export into @p sink (see the file comment). */
    void exportTo(json::ChunkSink &sink) const;

    static void sampleEvent(void *arg);
    void pollProviders(Cycle at);
    void push(const Record &r);
    void flowRec(TrackId t, Name n, Cycle at, std::uint64_t id,
                 RecKind kind);

    const Cycle *now_ = nullptr;
    std::uint32_t catMask_;

    std::vector<Record> ring_;
    std::size_t head_ = 0;       //!< next write slot.
    std::uint64_t written_ = 0;  //!< total records ever pushed.
    std::uint64_t dropped_ = 0;
    std::uint64_t spans_ = 0;
    std::uint64_t instants_ = 0;
    std::uint64_t counterRecs_ = 0;
    std::uint64_t flowRecs_ = 0;

    std::vector<Track> tracks_;
    std::vector<TrackId> coreTasks_;
    std::vector<TrackId> corePhases_;
    TrackId simTrack_ = kNoTrack;
    std::uint32_t counterTid_ = 0; //!< display order of counters.

    std::vector<Provider> providers_;
    std::unique_ptr<Sampler> sampler_;

    /** written_ and tracks_.size() at the last writeFile(). */
    std::uint64_t fileRecords_ = ~std::uint64_t(0);
    std::size_t fileTracks_ = 0;

    /** Registry holding our "timeline" group (for dtor removal). */
    StatsRegistry *statsReg_ = nullptr;
};

} // namespace minnow::timeline

#endif // MINNOW_SIM_TIMELINE_HH
