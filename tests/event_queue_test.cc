/**
 * @file
 * Timing-wheel EventQueue tests: the deterministic (when, seq)
 * ordering contract across the bucket/overflow boundary, far-future
 * (multi-wheel-rotation) events, schedule-during-resume, reset()
 * semantics, run() re-entrancy, and a byte-identical stats-JSON A/B
 * run of a real workload.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <queue>
#include <vector>

#include "harness/workloads.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

namespace minnow
{
namespace
{

constexpr Cycle kHorizon = EventQueue::kWheelBuckets;

/** Tag-recording callback plumbing shared by the ordering tests. */
struct Recorder
{
    explicit Recorder(EventQueue *q) : eq(q) {}

    EventQueue *eq;
    std::vector<int> order;

    struct Node
    {
        Recorder *rec;
        int tag;
    };

    std::vector<Node *> nodes;

    ~Recorder()
    {
        for (Node *n : nodes)
            delete n;
    }

    void
    push(Cycle when, int tag)
    {
        Node *n = new Node{this, tag};
        nodes.push_back(n);
        eq->schedule(when, [](void *p) {
            auto *n = static_cast<Node *>(p);
            n->rec->order.push_back(n->tag);
        }, n);
    }
};

TEST(EventQueue, SameCycleFifoAcrossOverflowBoundary)
{
    // Events for one cycle can arrive via two paths: through the
    // overflow heap (scheduled while the cycle was beyond the wheel
    // horizon) and directly into a bucket (scheduled once it was
    // inside). Scheduling order must still be execution order.
    EventQueue eq;
    Recorder rec{&eq};

    const Cycle target = 5 * kHorizon; // far future at t=0
    rec.push(target, 1);               // overflow path
    rec.push(target, 2);               // overflow path, same cycle

    // A stepping event (itself far-future) that schedules two more
    // events at `target` once the clock sits inside the horizon.
    struct Step
    {
        Recorder *rec;
        Cycle target;
    } step{&rec, target};
    eq.schedule(target - 100, [](void *p) {
        auto *s = static_cast<Step *>(p);
        // target is now 100 cycles ahead: direct-bucket path.
        s->rec->push(s->target, 3);
        s->rec->push(s->target, 4);
    }, &step);

    eq.run();
    EXPECT_EQ(rec.order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), target);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, FarFutureMultiRotationEvents)
{
    // Events several full wheel rotations apart execute in time
    // order, including the exact horizon boundary: now + horizon - 1
    // is the last bucketed cycle, now + horizon the first overflow
    // one.
    EventQueue eq;
    Recorder rec{&eq};

    rec.push(3 * kHorizon + 7, 5);
    rec.push(12 * kHorizon + 1, 6);
    rec.push(kHorizon, 3);     // first overflow cycle
    rec.push(kHorizon - 1, 2); // last direct-bucket cycle
    rec.push(3, 1);
    rec.push(kHorizon + 1, 4);

    EXPECT_EQ(eq.headTime(), 3u);
    eq.run();
    EXPECT_EQ(rec.order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(eq.now(), 12 * kHorizon + 1);
}

TEST(EventQueue, ScheduleDuringResumeAtCurrentCycle)
{
    // An event that schedules at eq.now() runs the new event in the
    // same run, same cycle, after the events already queued there.
    EventQueue eq;
    Recorder rec{&eq};

    struct Spawner
    {
        Recorder *rec;
    } sp{&rec};
    eq.schedule(5, [](void *p) {
        auto *s = static_cast<Spawner *>(p);
        s->rec->order.push_back(1);
        s->rec->push(s->rec->eq->now(), 3); // same-cycle re-schedule
    }, &sp);
    rec.push(5, 2);

    eq.run();
    EXPECT_EQ(rec.order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, PendingExcludesExecutingEvent)
{
    // The stats sampler re-arms itself only when the queue is
    // non-empty; the event being executed must not count.
    EventQueue eq;
    struct Ctx
    {
        EventQueue *eq;
        bool sawEmpty = false;
    } ctx{&eq};
    eq.schedule(3, [](void *p) {
        auto *c = static_cast<Ctx *>(p);
        c->sawEmpty = c->eq->empty() && c->eq->pending() == 0;
    }, &ctx);
    eq.run();
    EXPECT_TRUE(ctx.sawEmpty);
}

TEST(EventQueue, ResetClearsStateAndDiagnosticHook)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [](void *p) { (*static_cast<int *>(p))++; },
                &fired);
    int diags = 0;
    eq.setDiagnosticHook(
        [&diags](const char *) { ++diags; });
    eq.run();
    ASSERT_EQ(fired, 1);

    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.stopped());
    EXPECT_EQ(eq.headTime(), 0u);

    // The hook was cleared by reset(): a budget-exhausted run after
    // reset must not fire the stale hook.
    for (Cycle t = 1; t <= 3; ++t)
        eq.schedule(t, [](void *p) { (*static_cast<int *>(p))++; },
                    &fired);
    clearWarnings();
    EXPECT_EQ(eq.run(2), 2u);
    EXPECT_TRUE(warningsSeen()); // the budget warn itself remains
    clearWarnings();
    EXPECT_EQ(diags, 0);

    eq.run(); // drain the leftover event so the queue ends empty
    EXPECT_EQ(fired, 4);
}

TEST(EventQueueDeathTest, ResetWithPendingEventsPanics)
{
    EXPECT_EXIT(
        {
            EventQueue eq;
            eq.schedule(1, [](void *) {}, nullptr);
            eq.reset();
        },
        testing::KilledBySignal(SIGABRT), "non-empty event queue");
}

TEST(EventQueueDeathTest, RunReentrancyPanics)
{
    EXPECT_EXIT(
        {
            EventQueue eq;
            eq.schedule(1, [](void *p) {
                static_cast<EventQueue *>(p)->run();
            }, &eq);
            eq.run();
        },
        testing::KilledBySignal(SIGABRT), "re-entered");
}

TEST(EventQueue, StopMidBucketPreservesRemainingSameCycleEvents)
{
    // stop() between two same-cycle events: the second survives in
    // the middle of its bucket and runs on the next run() call, and
    // headTime() reports the current cycle meanwhile.
    EventQueue eq;
    Recorder rec{&eq};
    struct Stopper
    {
        Recorder *rec;
    } st{&rec};
    eq.schedule(4, [](void *p) {
        auto *s = static_cast<Stopper *>(p);
        s->rec->order.push_back(1);
        s->rec->eq->stop();
    }, &st);
    rec.push(4, 2);

    eq.run();
    EXPECT_EQ(rec.order, (std::vector<int>{1}));
    EXPECT_TRUE(eq.stopped());
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.headTime(), 4u);

    eq.run();
    EXPECT_EQ(rec.order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), 4u);
}

/**
 * Self-rearming periodic daemon (the stats/timeline samplers and the
 * watchdog in miniature), following the documented protocol:
 * daemonScheduled() on arm, daemonFired() first thing in the
 * handler, re-arm only while quiescent() is false.
 */
struct PeriodicDaemon
{
    EventQueue *eq;
    Cycle interval;
    std::uint64_t fires = 0;

    void
    arm()
    {
        eq->daemonScheduled();
        eq->schedule(eq->now() + interval, &PeriodicDaemon::fire,
                     this);
    }

    static void
    fire(void *p)
    {
        auto *d = static_cast<PeriodicDaemon *>(p);
        d->eq->daemonFired();
        d->fires += 1;
        if (!d->eq->quiescent())
            d->arm();
    }
};

TEST(EventQueue, MutuallyRearmingDaemonsDoNotKeepQueueAlive)
{
    // Two periodic daemons plus a finite chain of real events:
    // run() must drain once the real work is gone. With a plain
    // !empty() re-arm test the daemons would keep each other alive
    // forever (the --stats-interval + --timeline hang).
    EventQueue eq;
    PeriodicDaemon a{&eq, 10};
    PeriodicDaemon b{&eq, 15};
    a.arm();
    b.arm();
    EXPECT_TRUE(eq.quiescent());

    struct Chain
    {
        EventQueue *eq;
        int left;

        static void
        step(void *p)
        {
            auto *c = static_cast<Chain *>(p);
            if (--c->left > 0)
                c->eq->schedule(c->eq->now() + 40, &Chain::step, c);
        }
    } chain{&eq, 5};
    eq.schedule(40, &Chain::step, &chain);
    EXPECT_FALSE(eq.quiescent());

    std::uint64_t executed = eq.run();
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.stopped());
    // Real work ended at cycle 200; the daemons must have stopped
    // within one interval of that instead of running forever.
    EXPECT_LE(eq.now(), 215u);
    EXPECT_GE(a.fires, 1u);
    EXPECT_LE(a.fires, 25u);
    EXPECT_LE(b.fires, 18u);
    EXPECT_LT(executed, 60u);
}

/**
 * Property test: the wheel's execution order must equal a reference
 * binary heap ordered by (when, seq) — the pre-wheel implementation
 * — on a deterministic pseudo-random schedule whose offsets straddle
 * the horizon, including events spawned during execution.
 */
TEST(EventQueue, OrderMatchesReferenceHeapOnRandomSchedule)
{
    constexpr int kInitial = 400;

    // Deterministic LCG so both sims see identical schedules.
    auto lcgNext = [](std::uint64_t &s) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return std::uint32_t(s >> 33);
    };

    // Offsets spanning well past the horizon, with heavy same-cycle
    // collisions (mod 97) mixed in.
    auto offsetOf = [&lcgNext](std::uint64_t &s) {
        std::uint32_t r = lcgNext(s);
        switch (r % 4) {
          case 0: return Cycle(r % 97);             // near, colliding
          case 1: return Cycle(r % (kHorizon - 1)); // in-wheel
          case 2: return Cycle(kHorizon + r % 64);  // just overflow
          default: return Cycle(r % (6 * kHorizon));
        }
    };

    // --- Wheel run ---
    std::vector<int> wheelOrder;
    {
        EventQueue eq;
        struct Node
        {
            EventQueue *eq;
            std::vector<int> *order;
            std::uint64_t rng;
            int id;
            bool spawns;
        };
        std::vector<Node *> nodes;
        auto schedule = [&](Cycle when, int id, std::uint64_t rng,
                            bool spawns) {
            Node *n = new Node{&eq, &wheelOrder, rng, id, spawns};
            nodes.push_back(n);
            eq.schedule(when, [](void *p) {
                auto *n = static_cast<Node *>(p);
                n->order->push_back(n->id);
                if (n->spawns) {
                    // Children re-use the node machinery; ids are
                    // offset so divergence is visible immediately.
                    std::uint64_t s = n->rng;
                    auto *c = new Node{n->eq, n->order, 0,
                                       n->id + 100000, false};
                    Cycle off =
                        Cycle((s >> 17) % (2 * kHorizon));
                    n->eq->schedule(n->eq->now() + off,
                                    [](void *q) {
                        auto *c = static_cast<Node *>(q);
                        c->order->push_back(c->id);
                        delete c;
                    }, c);
                }
            }, n);
        };
        std::uint64_t rng = 12345;
        for (int i = 0; i < kInitial; ++i) {
            Cycle off = offsetOf(rng);
            schedule(off, i, rng, i % 3 == 0);
        }
        eq.run();
        for (Node *n : nodes)
            delete n;
    }

    // --- Reference heap run (the old implementation's contract) ---
    std::vector<int> refOrder;
    {
        struct Ev
        {
            Cycle when;
            std::uint64_t seq;
            std::uint64_t rng;
            int id;
            bool spawns;
            bool
            operator>(const Ev &o) const
            {
                if (when != o.when)
                    return when > o.when;
                return seq > o.seq;
            }
        };
        std::priority_queue<Ev, std::vector<Ev>, std::greater<>>
            heap;
        std::uint64_t seq = 0;
        std::uint64_t rng = 12345;
        for (int i = 0; i < kInitial; ++i) {
            Cycle off = offsetOf(rng);
            heap.push(Ev{off, seq++, rng, i, i % 3 == 0});
        }
        while (!heap.empty()) {
            Ev ev = heap.top();
            heap.pop();
            refOrder.push_back(ev.id);
            if (ev.spawns) {
                std::uint64_t s = ev.rng;
                Cycle off = Cycle((s >> 17) % (2 * kHorizon));
                heap.push(Ev{ev.when + off, seq++, 0,
                             ev.id + 100000, false});
            }
        }
    }

    ASSERT_EQ(wheelOrder.size(), refOrder.size());
    EXPECT_EQ(wheelOrder, refOrder);
}

/**
 * A/B determinism at workload level: two fresh runs of the same
 * seeded experiment must produce byte-identical stats JSON — the
 * same end-to-end guarantee the old binary-heap queue provided
 * (PR 2's determinism contract).
 */
TEST(EventQueue, WorkloadStatsJsonByteIdenticalAcrossRuns)
{
    auto runOnce = [] {
        harness::Workload w =
            harness::makeWorkload("sssp", 0.05, 7);
        harness::RunSpec spec;
        spec.config = harness::Config::MinnowPf;
        spec.threads = 4;
        spec.machine.numCores = 4;
        std::string json;
        spec.statsHook = [&json](const StatsRegistry &s) {
            json = s.toJson();
        };
        auto r = harness::runExperiment(w, spec);
        EXPECT_TRUE(r.run.verified);
        return json;
    };
    std::string a = runOnce();
    std::string b = runOnce();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

} // anonymous namespace
} // namespace minnow
