/**
 * @file
 * Statistics package: raw aggregate types plus the hierarchical
 * registry used for machine-readable dumps.
 *
 * One stats layer, the StatsRegistry: named groups ("sim", "core3",
 * "l2_3", "minnow0", "worklist") of typed stats — scalars, counters,
 * formulas evaluated lazily at dump time (MPKI, prefetch accuracy),
 * and fixed-bucket histograms — with JSON export and an optional
 * per-interval sampling hook driven off the EventQueue. The flat
 * StatsReport is only a read view of it: StatsRegistry::flatten
 * fills it with "group.stat" keys. StatHistogram is a raw aggregate
 * for host-side profiling.
 *
 * Components register their stats into a group once at construction;
 * formulas capture references to the component's own counters, so
 * nothing is paid on the hot path beyond the existing struct
 * increments. Dumping walks the registry, evaluates formulas, and
 * emits a JSON document (see DESIGN.md "Statistics & observability"
 * for the schema).
 */

#ifndef MINNOW_BASE_STATS_HH
#define MINNOW_BASE_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/ckpt.hh"
#include "base/types.hh"

namespace minnow
{

class EventQueue;

namespace json
{
class ChunkSink;
}

/**
 * The stats group holding host time (sim/hostprof). Its values differ
 * from run to run, so checkpoints and interval samples leave it out.
 */
inline constexpr const char *kHostTimeGroup = "hostprof";

inline bool
isHostTimeGroup(const std::string &name)
{
    return name == kHostTimeGroup;
}

/** Power-of-two bucketed histogram for latency/size distributions. */
class StatHistogram
{
  public:
    static constexpr int kBuckets = 32;

    void
    sample(std::uint64_t v)
    {
        int b = 0;
        while (b < kBuckets - 1 && (std::uint64_t(1) << b) <= v)
            ++b;
        buckets_[b] += 1;
        total_ += 1;
        sum_ += v;
    }

    std::uint64_t bucket(int i) const { return buckets_[i]; }
    std::uint64_t total() const { return total_; }
    double mean() const { return total_ ? double(sum_) / total_ : 0.0; }

    /** Smallest v such that at least frac of samples are <= v. */
    std::uint64_t
    percentile(double frac) const
    {
        std::uint64_t want =
            static_cast<std::uint64_t>(frac * double(total_));
        std::uint64_t seen = 0;
        for (int b = 0; b < kBuckets; ++b) {
            seen += buckets_[b];
            if (seen >= want)
                return b == 0 ? 0 : (std::uint64_t(1) << b) - 1;
        }
        return ~std::uint64_t(0);
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        total_ = 0;
        sum_ = 0;
    }

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Flat name -> value view of a StatsRegistry (see
 * StatsRegistry::flatten). Keys use dotted paths, e.g.
 * "attribution.fills".
 */
class StatsReport
{
  public:
    void
    add(const std::string &key, double value)
    {
        values_[key] = value;
    }

    double
    get(const std::string &key, double dflt = 0.0) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? dflt : it->second;
    }

    bool has(const std::string &key) const { return values_.count(key); }

    const std::map<std::string, double> &values() const { return values_; }

  private:
    std::map<std::string, double> values_;
};

//
// Hierarchical registry layer.
//

/** What flavour of stat an entry is (drives JSON rendering). */
enum class StatKind
{
    Scalar,    //!< externally-set double.
    Counter,   //!< monotonically increasing integer.
    Formula,   //!< derived; evaluated lazily at dump time.
    Histogram, //!< fixed-width-bucket distribution.
};

/** Base of every registry-owned statistic. */
class Stat
{
  public:
    Stat(std::string name, std::string desc, StatKind kind)
        : name_(std::move(name)), desc_(std::move(desc)), kind_(kind)
    {
    }
    virtual ~Stat() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }
    StatKind kind() const { return kind_; }

    /** Current (or, for formulas, freshly evaluated) value. */
    virtual double value() const = 0;

    /**
     * Serialize the stat's *value* (not its identity: name, desc
     * and kind are recreated by the registering component; its group
     * writes the name before the value).
     */
    virtual void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.transient("name_ desc_ kind_");
    }

  private:
    std::string name_;
    std::string desc_;
    StatKind kind_;
};

/** A plain assignable double. */
class ScalarStat : public Stat
{
  public:
    ScalarStat(std::string name, std::string desc)
        : Stat(std::move(name), std::move(desc), StatKind::Scalar)
    {
    }

    ScalarStat &
    operator=(double v)
    {
        v_ = v;
        return *this;
    }

    ScalarStat &
    operator+=(double v)
    {
        v_ += v;
        return *this;
    }

    double value() const override { return v_; }

    void checkpoint(ckpt::Ckpt &ck) const override { ck.io(v_); }

  private:
    double v_ = 0;
};

/** A monotonically increasing event counter. */
class CounterStat : public Stat
{
  public:
    CounterStat(std::string name, std::string desc)
        : Stat(std::move(name), std::move(desc), StatKind::Counter)
    {
    }

    CounterStat &
    operator++()
    {
        v_ += 1;
        return *this;
    }

    CounterStat &
    operator+=(std::uint64_t n)
    {
        v_ += n;
        return *this;
    }

    std::uint64_t count() const { return v_; }
    double value() const override { return double(v_); }

    void checkpoint(ckpt::Ckpt &ck) const override { ck.io(v_); }

  private:
    std::uint64_t v_ = 0;
};

/**
 * A derived stat (MPKI, prefetch accuracy, ...) evaluated whenever
 * the registry is dumped or sampled. The callable typically captures
 * pointers to component counters; it must stay valid for the life of
 * the group (components deregister their group on destruction).
 * Non-finite results (0/0 divisions) read as 0.
 */
class FormulaStat : public Stat
{
  public:
    using Fn = std::function<double()>;

    FormulaStat(std::string name, std::string desc, Fn fn)
        : Stat(std::move(name), std::move(desc), StatKind::Formula),
          fn_(std::move(fn))
    {
    }

    double value() const override;

    /** Formulas hold no state: they re-derive from their inputs. */
    void checkpoint(ckpt::Ckpt &ck) const override { ck.transient("fn_"); }

  private:
    Fn fn_;
};

/**
 * Fixed-bucket histogram: @p buckets linear buckets of @p bucketWidth
 * each, the last one catching overflow. Used for bounded-range
 * distributions such as worklist-pop latency and threadlet-queue
 * occupancy.
 */
class HistogramStat : public Stat
{
  public:
    HistogramStat(std::string name, std::string desc,
                  std::uint64_t bucketWidth, std::uint32_t buckets)
        : Stat(std::move(name), std::move(desc), StatKind::Histogram),
          width_(bucketWidth ? bucketWidth : 1),
          counts_(buckets ? buckets : 1)
    {
    }

    void
    sample(std::uint64_t v)
    {
        std::size_t b = std::size_t(v / width_);
        if (b >= counts_.size())
            b = counts_.size() - 1;
        counts_[b] += 1;
        total_ += 1;
        sum_ += v;
    }

    std::uint64_t bucketWidth() const { return width_; }
    std::uint32_t numBuckets() const
    {
        return std::uint32_t(counts_.size());
    }
    std::uint64_t bucketCount(std::uint32_t i) const
    {
        return counts_[i];
    }
    std::uint64_t total() const { return total_; }
    double mean() const { return total_ ? double(sum_) / total_ : 0.0; }

    /**
     * Upper edge of the smallest bucket covering at least frac of
     * the samples (bucket-width granularity); 0 when empty.
     */
    std::uint64_t
    percentile(double frac) const
    {
        if (!total_)
            return 0;
        std::uint64_t want =
            static_cast<std::uint64_t>(frac * double(total_));
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < counts_.size(); ++b) {
            seen += counts_[b];
            if (seen >= want)
                return (b + 1) * width_ - 1;
        }
        return counts_.size() * width_ - 1;
    }

    /** Histograms report their mean as the scalar value. */
    double value() const override { return mean(); }

    void
    reset()
    {
        for (auto &c : counts_)
            c = 0;
        total_ = 0;
        sum_ = 0;
    }

    void
    checkpoint(ckpt::Ckpt &ck) const override
    {
        ck.io(width_);
        ck.io(counts_);
        ck.io(total_);
        ck.io(sum_);
    }

  private:
    std::uint64_t width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/** One named group of stats ("core7", "minnow0", "worklist"). */
class StatsGroup
{
  public:
    explicit StatsGroup(std::string name) : name_(std::move(name)) {}

    StatsGroup(const StatsGroup &) = delete;
    StatsGroup &operator=(const StatsGroup &) = delete;

    const std::string &name() const { return name_; }

    ScalarStat &scalar(const std::string &name,
                       const std::string &desc = "");
    CounterStat &counter(const std::string &name,
                         const std::string &desc = "");
    FormulaStat &formula(const std::string &name,
                         const std::string &desc, FormulaStat::Fn fn);
    HistogramStat &histogram(const std::string &name,
                             const std::string &desc,
                             std::uint64_t bucketWidth,
                             std::uint32_t buckets);

    /** Lookup; nullptr when absent. */
    const Stat *find(const std::string &name) const;

    /** Stats in registration order. */
    const std::vector<std::unique_ptr<Stat>> &stats() const
    {
        return stats_;
    }

    /**
     * Serialize every stat's name and value in registration order,
     * so the witness sees a structural change as well as a changed
     * value.
     */
    void checkpoint(ckpt::Ckpt &ck) const;

  private:
    friend class StatsRegistry;

    /** Register @p s; fatal() on a duplicate name. */
    Stat &adopt(std::unique_ptr<Stat> s);

    std::string name_;
    std::vector<std::unique_ptr<Stat>> stats_;
    std::map<std::string, Stat *> index_;

    /** The owning registry's structure generation (bumped by
     *  adopt()); null for a group outside any registry. */
    std::uint64_t *generation_ = nullptr;
};

/**
 * The hierarchical registry: a name -> group map with text/JSON
 * export and optional interval sampling.
 *
 * Group naming scheme (see DESIGN.md): "sim" for run-global stats,
 * "core<N>" per core, "l2_<N>" per private cache slice, "minnow<N>"
 * per engine, "worklist" for the software scheduler, "mem" for
 * hierarchy totals.
 */
class StatsRegistry
{
  public:
    /**
     * One interval sample as read back from the spool (sample()):
     * the sorted "group.stat" key of every non-histogram stat
     * outside "hostprof", and its value at @p cycle.
     */
    struct IntervalSample
    {
        Cycle cycle = 0;
        /** Index of the sample's layout record: consecutive samples
         *  over one key list share it. */
        std::size_t layout = 0;
        std::vector<std::string> keys;
        std::vector<double> values; //!< parallel to keys.

        /** Value of @p key; fatal() when the sample lacks it. */
        double at(const std::string &key) const;
    };

    StatsRegistry() = default;
    ~StatsRegistry();
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /** Get-or-create a group. */
    StatsGroup &group(const std::string &name);

    /**
     * Create a group, discarding any previous one of that name (for
     * components re-attached to a reused machine, e.g. a second
     * MinnowSystem).
     */
    StatsGroup &freshGroup(const std::string &name);

    /** Lookup; nullptr when absent. */
    const StatsGroup *find(const std::string &name) const;

    /** Drop a group (component teardown invalidates its formulas). */
    void removeGroup(const std::string &name);

    /** Groups in name order. */
    std::vector<const StatsGroup *> groups() const;

    /** Flatten every stat into "group.stat" keys of a report. */
    void flatten(StatsReport &out) const;

    /**
     * Serialize groups (+ interval samples) as a JSON document
     * (schema "minnow-stats-1") into @p sink, polling it after every
     * stat and every sample value: a file sink holds at most about
     * one chunk of the document at a time.
     */
    void writeJson(json::ChunkSink &sink) const;

    /** writeJson() into one string. */
    std::string toJson() const;

    /** Stream writeJson() to @p path, then a newline; false on I/O
     *  error. */
    bool writeJsonFile(const std::string &path) const;

    /**
     * Sample all non-histogram stats every @p interval cycles, driven
     * by events on @p eq. The sampler re-arms only while other events
     * remain pending, so it never keeps a drained simulation alive.
     * The registry must outlive the event queue's run.
     */
    void startSampling(EventQueue &eq, Cycle interval);

    /**
     * Take one interval sample at cycle @p now (the sampling
     * event's body; public so tests and micro-benchmarks can drive
     * it directly). It is appended to the sample spool, an unlinked
     * file in the host's temporary directory (TMPDIR, else /tmp)
     * created by the first sample; fatal() if it cannot be created
     * or written.
     */
    void recordSample(Cycle now);

    /** Interval samples taken so far. */
    std::size_t sampleCount() const;

    /** Sample @p i (< sampleCount()), read back from the spool. */
    IntervalSample sample(std::size_t i) const;

    /**
     * Serialize all counter/scalar/histogram values plus the interval
     * samples, in sorted group order. The host-time "hostprof" group
     * is skipped: its values are nondeterministic by design and would
     * break byte-identical restore comparisons.
     */
    void checkpoint(ckpt::Ckpt &ck) const;

  private:
    struct Sampler
    {
        StatsRegistry *registry = nullptr;
        EventQueue *eq = nullptr;
        Cycle interval = 0;
    };

    /**
     * The current structure's sample key set: every non-histogram
     * stat outside "hostprof" as a sorted "group.stat" key, and the
     * stat behind it. Only read while the registry generation it
     * was built at is current.
     */
    struct SampleLayout
    {
        std::vector<std::string> keys;
        std::vector<const Stat *> stats;
    };

    /**
     * Consecutive spooled samples over one key list: a layout record
     * at layoutAt (u64 key count, u64 key bytes, u32 length per key,
     * the keys' bytes) and then `rows` rows of 8 + 8 * width bytes
     * (the cycle, then one double per key) from rowsAt.
     */
    struct SampleRun
    {
        std::uint64_t layoutAt = 0;
        std::uint64_t rowsAt = 0;
        std::size_t width = 0;
        std::size_t first = 0; //!< index of the run's first sample.
        std::size_t rows = 0;
    };

    static void sampleEvent(void *arg);

    /** The sample layout of the current structure (rebuilt lazily). */
    const std::shared_ptr<const SampleLayout> &sampleLayout();

    /** Append a layout record for @p keys and start a run on it. */
    void startRun(const std::vector<std::string> &keys);

    /** Append @p row (the cycle's bits, then the last run's width
     *  values) to the last run. */
    void appendRow(const double *row);

    /** The keys of run @p r's layout record. */
    std::vector<std::string> readKeys(const SampleRun &r) const;

    /** Read sample row @p j of run @p r into @p row (cycle first). */
    void readRow(const SampleRun &r, std::size_t j,
                 std::vector<double> &row) const;

    std::map<std::string, std::unique_ptr<StatsGroup>> groups_;
    std::unique_ptr<Sampler> sampler_;

    /**
     * Structure generation: bumped whenever a group is created or
     * removed or a stat registered into one of this registry's
     * groups. A plain per-registry counter (each --host-par thread
     * owns its own registry).
     */
    std::uint64_t generation_ = 0;
    std::shared_ptr<const SampleLayout> layout_;
    std::uint64_t layoutGeneration_ = 0;

    /**
     * The interval samples live in the spool file, not in memory:
     * only the runs' offsets stay here, plus one row buffer. spooled_
     * is the layout whose keys the last layout record holds.
     */
    int spoolFd_ = -1;
    std::uint64_t spoolEnd_ = 0;
    std::vector<SampleRun> runs_;
    std::shared_ptr<const SampleLayout> spooled_;
    std::vector<double> row_;

    /** Liveness token: StatsClaims hold it weakly, so they see the
     *  registry is gone once it has been destroyed. */
    std::shared_ptr<StatsRegistry *> self_ =
        std::make_shared<StatsRegistry *>(this);

    friend class StatsClaim;
};

/**
 * A component's hold on the group it registered into a registry it
 * does not own. Destroying the claim (or assigning another to it)
 * removes the group, so formulas capturing the component cannot
 * outlive it; if the registry died first there is nothing to remove,
 * and the claim does nothing. Declare the claim as the component's
 * last member, so it is destroyed first.
 */
class StatsClaim
{
  public:
    StatsClaim() = default;
    StatsClaim(StatsRegistry &reg, std::string group)
        : reg_(reg.self_), group_(std::move(group))
    {
    }

    ~StatsClaim() { release(); }

    StatsClaim(StatsClaim &&) noexcept = default;

    StatsClaim &
    operator=(StatsClaim &&o) noexcept
    {
        if (this != &o) {
            release();
            reg_ = std::move(o.reg_);
            group_ = std::move(o.group_);
        }
        return *this;
    }

    /** Remove the group now, if its registry is alive; the claim
     *  then holds nothing. */
    void
    release()
    {
        if (auto reg = reg_.lock())
            (*reg)->removeGroup(group_);
        reg_.reset();
    }

  private:
    std::weak_ptr<StatsRegistry *> reg_;
    std::string group_;
};

} // namespace minnow

#endif // MINNOW_BASE_STATS_HH
