// Seeded violations for the `determinism-taint` rule: host-derived
// values laundered through return values (up to three call layers)
// and then written into the places that steer simulated behavior.
// Conforming twin in determinism_taint_ok.cc.

namespace fixture
{

namespace ckpt
{
class Ckpt;
}

struct ScalarStat
{
};

unsigned long long hostNowNs();

// Depth-1 laundering: the banned value hides behind a return.
unsigned long long
wallTicks()
{
    return hostNowNs() / 64;
}

// Depth-2 laundering: still inside the taint closure.
unsigned long long
wallJitter()
{
    return wallTicks() & 0xff;
}

struct TimerQueue
{
    unsigned long long now() const;
    void schedule(unsigned long long when, void (*fn)(void *),
                  void *arg);
};

struct SeededRng
{
    void seed(unsigned long long s);
};

class TaintSinks
{
  public:
    void armTimer(TimerQueue &tq);
    void reseed(SeededRng &rng);
    void sample();
    void stampRestore();

    void
    checkpoint(ckpt::Ckpt &ck)
    {
        ck.io(bootStamp_);
        ck.transient("hostLag_");
    }

  private:
    ScalarStat hostLag_;
    unsigned long long bootStamp_ = 0;
};

void
TaintSinks::armTimer(TimerQueue &tq)
{
    // finding: a host-dependent event time reorders the whole run
    // (wallJitter is tainted two call layers from hostNowNs).
    tq.schedule(tq.now() + wallJitter(), nullptr, nullptr);
}

void
TaintSinks::reseed(SeededRng &rng)
{
    unsigned long long s = wallTicks();
    // finding: host-derived seed re-keys every downstream draw.
    rng.seed(s);
}

void
TaintSinks::sample()
{
    // finding: stats JSON is byte-diffed across runs; host time
    // must not reach an exported scalar.
    hostLag_ = wallTicks();
}

void
TaintSinks::stampRestore()
{
    // finding: checkpoint-serialized state must not depend on the
    // host clock, or witnesses differ run to run.
    bootStamp_ = wallTicks();
}

} // namespace fixture
