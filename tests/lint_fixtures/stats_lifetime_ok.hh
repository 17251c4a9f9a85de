// Conforming twin of stats_lifetime_bad.hh: zero findings. Shows
// the sanctioned shapes: a StatsClaim member (worklist.hh), the
// attach/remove pattern, and registration into a registry the class
// owns by value.

#ifndef FIXTURE_STATS_LIFETIME_OK_HH
#define FIXTURE_STATS_LIFETIME_OK_HH

namespace fixture
{

class StatsGroup;

class StatsRegistry
{
  public:
    StatsGroup &freshGroup(const char *name);
    void removeGroup(const char *name);
};

class StatsClaim
{
  public:
    StatsClaim(StatsRegistry &reg, const char *name);
};

// The claim member's destructor removes the group.
class ClaimingComponent
{
  public:
    explicit ClaimingComponent(StatsRegistry &reg)
        : statsClaim_(reg, "claiming")
    {
        reg.freshGroup("claiming");
    }

  private:
    StatsClaim statsClaim_;
};

class TidyComponent
{
  public:
    void
    attachStats(StatsRegistry &reg)
    {
        statsReg_ = &reg;
        reg.freshGroup("tidy");
    }

    ~TidyComponent()
    {
        if (statsReg_)
            statsReg_->removeGroup("tidy");
    }

  private:
    StatsRegistry *statsReg_ = nullptr;
};

// A destructor that reaches removeGroup through a helper also
// counts (one level of indirection).
class IndirectComponent
{
  public:
    void
    attachStats(StatsRegistry &reg)
    {
        statsReg_ = &reg;
        reg.freshGroup("indirect");
    }

    ~IndirectComponent() { detachStats(); }

  private:
    void
    detachStats()
    {
        if (statsReg_)
            statsReg_->removeGroup("indirect");
    }

    StatsRegistry *statsReg_ = nullptr;
};

// Registering into a registry this class owns by value: the groups
// cannot outlive the component, so no removal is needed.
class OwningMachine
{
  public:
    void
    setup()
    {
        stats.freshGroup("own");
    }

  private:
    StatsRegistry stats;
};

} // namespace fixture

#endif
