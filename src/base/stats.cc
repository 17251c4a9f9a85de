#include "base/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/json.hh"
#include "base/logging.hh"
#include "sim/event_queue.hh"

namespace minnow
{

double
FormulaStat::value() const
{
    double v = fn_ ? fn_() : 0.0;
    return std::isfinite(v) ? v : 0.0;
}

//
// StatsGroup
//

Stat &
StatsGroup::adopt(std::unique_ptr<Stat> s)
{
    fatal_if(index_.count(s->name()),
             "duplicate stat '%s' in group '%s'", s->name().c_str(),
             name_.c_str());
    Stat &ref = *s;
    index_[s->name()] = s.get();
    stats_.push_back(std::move(s));
    if (generation_)
        ++*generation_;
    return ref;
}

ScalarStat &
StatsGroup::scalar(const std::string &name, const std::string &desc)
{
    return static_cast<ScalarStat &>(
        adopt(std::make_unique<ScalarStat>(name, desc)));
}

CounterStat &
StatsGroup::counter(const std::string &name, const std::string &desc)
{
    return static_cast<CounterStat &>(
        adopt(std::make_unique<CounterStat>(name, desc)));
}

FormulaStat &
StatsGroup::formula(const std::string &name, const std::string &desc,
                    FormulaStat::Fn fn)
{
    return static_cast<FormulaStat &>(adopt(
        std::make_unique<FormulaStat>(name, desc, std::move(fn))));
}

HistogramStat &
StatsGroup::histogram(const std::string &name, const std::string &desc,
                      std::uint64_t bucketWidth, std::uint32_t buckets)
{
    return static_cast<HistogramStat &>(
        adopt(std::make_unique<HistogramStat>(name, desc, bucketWidth,
                                              buckets)));
}

const Stat *
StatsGroup::find(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : it->second;
}

void
StatsGroup::checkpoint(ckpt::Ckpt &ck)
{
    // name_ and index_ are identity, recreated at registration time;
    // only values travel, guarded by per-stat names.
    ck.transient("name_ index_ generation_");
    std::uint64_t n = stats_.size();
    ck.io(n);
    if (ck.loading() && n != stats_.size()) {
        ck.fail("stats group '" + name_ + "' has " +
                std::to_string(stats_.size()) +
                " stats but the checkpoint holds " + std::to_string(n));
        return;
    }
    for (auto &s : stats_) {
        std::string statName = s->name();
        ck.io(statName);
        if (ck.loading() && statName != s->name()) {
            ck.fail("stats group '" + name_ + "': expected stat '" +
                    s->name() + "' but the checkpoint holds '" +
                    statName + "'");
            return;
        }
        s->checkpoint(ck);
        if (!ck.ok())
            return;
    }
}

//
// StatsRegistry
//

StatsGroup &
StatsRegistry::group(const std::string &name)
{
    auto it = groups_.find(name);
    if (it == groups_.end()) {
        it = groups_
                 .emplace(name, std::make_unique<StatsGroup>(name))
                 .first;
        it->second->generation_ = &generation_;
        ++generation_;
    }
    return *it->second;
}

StatsGroup &
StatsRegistry::freshGroup(const std::string &name)
{
    removeGroup(name);
    return group(name);
}

const StatsGroup *
StatsRegistry::find(const std::string &name) const
{
    auto it = groups_.find(name);
    return it == groups_.end() ? nullptr : it->second.get();
}

void
StatsRegistry::removeGroup(const std::string &name)
{
    if (groups_.erase(name))
        ++generation_;
}

std::vector<const StatsGroup *>
StatsRegistry::groups() const
{
    std::vector<const StatsGroup *> out;
    out.reserve(groups_.size());
    for (const auto &[name, g] : groups_)
        out.push_back(g.get());
    return out;
}

void
StatsRegistry::flatten(StatsReport &out) const
{
    for (const auto &[gname, g] : groups_) {
        for (const auto &s : g->stats()) {
            std::string key = gname + "." + s->name();
            if (s->kind() == StatKind::Histogram) {
                const auto &h =
                    static_cast<const HistogramStat &>(*s);
                out.add(key + ".mean", h.mean());
                out.add(key + ".total", double(h.total()));
            } else {
                out.add(key, s->value());
            }
        }
    }
}

namespace
{

using json::appendNumber;

void
appendStatJson(std::string &out, const Stat &s)
{
    json::appendKey(out, s.name());
    if (s.kind() == StatKind::Histogram) {
        const auto &h = static_cast<const HistogramStat &>(s);
        out += "{\"type\":\"histogram\",\"bucketWidth\":";
        appendNumber(out, double(h.bucketWidth()));
        out += ",\"total\":";
        appendNumber(out, double(h.total()));
        out += ",\"mean\":";
        appendNumber(out, h.mean());
        out += ",\"counts\":[";
        for (std::uint32_t i = 0; i < h.numBuckets(); ++i) {
            if (i)
                out += ',';
            appendNumber(out, double(h.bucketCount(i)));
        }
        out += "]}";
    } else {
        appendNumber(out, s.value());
    }
}

} // anonymous namespace

std::string
StatsRegistry::toJson() const
{
    // Reserve once for the intervals, which dominate (tens of MB at
    // 64 cores) and would otherwise be copied by every regrowth; the
    // 16 bytes allowed per number leave room for the groups.
    std::size_t estimate = std::size_t(1) << 16;
    for (const IntervalSample &is : samples_) {
        estimate +=
            48 + is.layout->prefixBytes + 16 * is.values.size();
    }
    std::string out;
    out.reserve(estimate);
    out += "{\"schema\":\"minnow-stats-1\",\"groups\":{";
    bool firstGroup = true;
    for (const auto &[gname, g] : groups_) {
        if (!firstGroup)
            out += ',';
        firstGroup = false;
        json::appendKey(out, gname);
        out += '{';
        bool firstStat = true;
        for (const auto &s : g->stats()) {
            if (!firstStat)
                out += ',';
            firstStat = false;
            appendStatJson(out, *s);
        }
        out += '}';
    }
    out += '}';
    if (!samples_.empty()) {
        out += ",\"intervals\":[";
        bool firstSample = true;
        for (const IntervalSample &is : samples_) {
            if (!firstSample)
                out += ',';
            firstSample = false;
            out += "{\"cycle\":";
            appendNumber(out, double(is.cycle));
            out += ",\"values\":{";
            const std::vector<std::string> &prefixes =
                is.layout->prefixes;
            for (std::size_t i = 0; i < is.values.size(); ++i) {
                if (i)
                    out += ',';
                out += prefixes[i];
                appendNumber(out, is.values[i]);
            }
            out += "}}";
        }
        out += ']';
    }
    out += '}';
    return out;
}

bool
StatsRegistry::writeJsonFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string json = toJson();
    bool ok = std::fwrite(json.data(), 1, json.size(), f) ==
              json.size();
    ok = std::fputc('\n', f) != EOF && ok;
    return std::fclose(f) == 0 && ok;
}

void
StatsRegistry::startSampling(EventQueue &eq, Cycle interval)
{
    fatal_if(interval == 0, "stats sampling interval must be > 0");
    if (sampler_)
        return; // already armed.
    sampler_ = std::make_unique<Sampler>();
    sampler_->registry = this;
    sampler_->eq = &eq;
    sampler_->interval = interval;
    eq.daemonScheduled();
    eq.schedule(eq.now() + interval, &StatsRegistry::sampleEvent,
                sampler_.get());
}

void
StatsRegistry::sampleEvent(void *arg)
{
    auto *s = static_cast<Sampler *>(arg);
    s->eq->daemonFired();
    s->registry->recordSample(s->eq->now());
    // Re-arm only while non-daemon work remains: against empty()
    // alone, this sampler and any other periodic daemon (timeline
    // sampler, watchdog) would keep each other alive forever.
    if (!s->eq->quiescent()) {
        s->eq->daemonScheduled();
        s->eq->schedule(s->eq->now() + s->interval,
                        &StatsRegistry::sampleEvent, s);
    }
}

namespace
{

/** A layout over @p keys (sorted, unique) without stat pointers. */
std::shared_ptr<StatsRegistry::SampleLayout>
makeLayout(std::vector<std::string> keys)
{
    auto l = std::make_shared<StatsRegistry::SampleLayout>();
    l->prefixes.reserve(keys.size());
    for (const std::string &k : keys) {
        std::string p;
        json::appendKey(p, k);
        l->prefixBytes += p.size();
        l->prefixes.push_back(std::move(p));
    }
    l->keys = std::move(keys);
    return l;
}

} // anonymous namespace

double
StatsRegistry::IntervalSample::at(const std::string &key) const
{
    const std::vector<std::string> &keys = layout->keys;
    auto it = std::lower_bound(keys.begin(), keys.end(), key);
    fatal_if(it == keys.end() || *it != key,
             "interval sample at cycle %llu has no stat '%s'",
             (unsigned long long)cycle, key.c_str());
    return values[std::size_t(it - keys.begin())];
}

void
StatsRegistry::checkpoint(ckpt::Ckpt &ck)
{
    // The sampler is an event-queue daemon and is re-armed by the
    // restored run itself; the layout is derived from the groups.
    ck.transient("sampler_ generation_ layout_ layoutGeneration_");
    std::uint64_t n = 0;
    for (const auto &[gname, g] : groups_) {
        (void)g;
        if (!isHostTimeGroup(gname))
            ++n;
    }
    std::uint64_t local = n;
    ck.io(n);
    if (ck.loading() && n != local) {
        ck.fail("checkpoint holds " + std::to_string(n) +
                " stats groups but the registry has " +
                std::to_string(local));
        return;
    }
    for (auto &[gname, g] : groups_) {
        if (isHostTimeGroup(gname))
            continue;
        std::string name = gname;
        ck.io(name);
        if (ck.loading() && name != gname) {
            ck.fail("expected stats group '" + gname +
                    "' but the checkpoint holds '" + name + "'");
            return;
        }
        g->checkpoint(ck);
        if (!ck.ok())
            return;
    }
    // Samples travel as key/value pairs, independent of the layout;
    // on load, consecutive samples with the same keys share one
    // layout again.
    std::uint64_t ns = samples_.size();
    ck.io(ns);
    if (ck.loading())
        samples_.resize(std::size_t(ns));
    std::shared_ptr<const SampleLayout> prev;
    for (std::size_t s = 0; s < samples_.size(); ++s) {
        IntervalSample &is = samples_[s];
        ck.io(is.cycle);
        std::uint64_t nv = is.values.size();
        ck.io(nv);
        if (ck.saving()) {
            for (std::size_t i = 0; i < is.values.size(); ++i) {
                std::string k = is.layout->keys[i];
                ck.io(k);
                ck.io(is.values[i]);
            }
            continue;
        }
        std::vector<std::string> keys;
        is.values.clear();
        for (std::uint64_t i = 0; i < nv && ck.ok(); ++i) {
            std::string k;
            double v = 0;
            ck.io(k);
            ck.io(v);
            keys.push_back(std::move(k));
            is.values.push_back(v);
        }
        if (!ck.ok()) {
            samples_.resize(s); // keep only whole samples.
            return;
        }
        if (!prev || prev->keys != keys)
            prev = makeLayout(std::move(keys));
        is.layout = prev;
    }
}

const std::shared_ptr<const StatsRegistry::SampleLayout> &
StatsRegistry::sampleLayout()
{
    if (layout_ && layoutGeneration_ == generation_)
        return layout_;
    // Keys are sorted, and when two stats join to the same key
    // ("a.b" + "c" vs "a" + "b.c") the later one in group and
    // registration order wins. Host time stays out of samples, as it
    // does out of checkpoints, so samples are deterministic.
    std::map<std::string, const Stat *> byKey;
    for (const auto &[gname, g] : groups_) {
        if (isHostTimeGroup(gname))
            continue;
        for (const auto &s : g->stats()) {
            if (s->kind() != StatKind::Histogram)
                byKey[gname + "." + s->name()] = s.get();
        }
    }
    std::vector<std::string> keys;
    std::vector<const Stat *> stats;
    keys.reserve(byKey.size());
    stats.reserve(byKey.size());
    for (auto &[key, s] : byKey) {
        keys.push_back(key);
        stats.push_back(s);
    }
    std::shared_ptr<SampleLayout> l = makeLayout(std::move(keys));
    l->stats = std::move(stats);
    layout_ = std::move(l);
    layoutGeneration_ = generation_;
    return layout_;
}

void
StatsRegistry::recordSample(Cycle now)
{
    const std::shared_ptr<const SampleLayout> &layout = sampleLayout();
    IntervalSample is;
    is.cycle = now;
    is.layout = layout;
    is.values.reserve(layout->stats.size());
    for (const Stat *s : layout->stats)
        is.values.push_back(s->value());
    samples_.push_back(std::move(is));
}

} // namespace minnow
