#include "base/stats.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

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
StatsGroup::checkpoint(ckpt::Ckpt &ck) const
{
    // name_ and index_ are identity, recreated at registration time;
    // each value travels after its stat's name.
    ck.transient("name_ index_ generation_");
    ck.io(std::uint64_t(stats_.size()));
    for (const auto &s : stats_) {
        ck.io(s->name());
        s->checkpoint(ck);
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

void
StatsRegistry::writeJson(json::ChunkSink &sink) const
{
    std::string &out = sink.buf;
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
            sink.poll();
        }
        out += '}';
    }
    out += '}';
    if (!runs_.empty()) {
        out += ",\"intervals\":[";
        std::vector<std::string> prefixes;
        std::vector<double> row;
        for (const SampleRun &r : runs_) {
            prefixes = readKeys(r);
            for (std::string &k : prefixes) {
                std::string p;
                json::appendKey(p, k);
                k = std::move(p);
            }
            for (std::size_t j = 0; j < r.rows; ++j) {
                readRow(r, j, row);
                if (r.first + j)
                    out += ',';
                out += "{\"cycle\":";
                appendNumber(out, double(std::bit_cast<Cycle>(row[0])));
                out += ",\"values\":{";
                for (std::size_t i = 0; i < r.width; ++i) {
                    if (i)
                        out += ',';
                    out += prefixes[i];
                    appendNumber(out, row[i + 1]);
                    sink.poll();
                }
                out += "}}";
            }
        }
        out += ']';
    }
    out += '}';
}

std::string
StatsRegistry::toJson() const
{
    json::ChunkSink sink(nullptr);
    writeJson(sink);
    return std::move(sink.buf);
}

bool
StatsRegistry::writeJsonFile(const std::string &path) const
{
    return json::writeFile(path, [this](json::ChunkSink &sink) {
        writeJson(sink);
        sink.buf += '\n';
    });
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

double
StatsRegistry::IntervalSample::at(const std::string &key) const
{
    auto it = std::lower_bound(keys.begin(), keys.end(), key);
    fatal_if(it == keys.end() || *it != key,
             "interval sample at cycle %llu has no stat '%s'",
             (unsigned long long)cycle, key.c_str());
    return values[std::size_t(it - keys.begin())];
}

void
StatsRegistry::checkpoint(ckpt::Ckpt &ck) const
{
    // The sampler is an event-queue daemon, the layout is derived
    // from the groups, and the spool is host state.
    ck.transient("sampler_ generation_ layout_ layoutGeneration_ "
                 "spoolFd_ spoolEnd_ spooled_ row_ self_");
    ck.io(std::uint64_t(std::count_if(
        groups_.begin(), groups_.end(),
        [](const auto &g) { return !isHostTimeGroup(g.first); })));
    for (const auto &[gname, g] : groups_) {
        if (isHostTimeGroup(gname))
            continue;
        ck.io(gname);
        g->checkpoint(ck);
    }
    // Samples travel as key/value pairs, independent of the spool's
    // runs.
    ck.io(std::uint64_t(sampleCount()));
    std::vector<double> row;
    for (const SampleRun &r : runs_) {
        const std::vector<std::string> keys = readKeys(r);
        for (std::size_t j = 0; j < r.rows; ++j) {
            readRow(r, j, row);
            ck.io(std::bit_cast<Cycle>(row[0]));
            ck.io(std::uint64_t(r.width));
            for (std::size_t i = 0; i < r.width; ++i) {
                ck.io(keys[i]);
                ck.io(row[i + 1]);
            }
        }
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
    auto l = std::make_shared<SampleLayout>();
    l->keys = std::move(keys);
    l->stats = std::move(stats);
    layout_ = std::move(l);
    layoutGeneration_ = generation_;
    return layout_;
}

void
StatsRegistry::recordSample(Cycle now)
{
    const std::shared_ptr<const SampleLayout> &layout = sampleLayout();
    if (layout != spooled_) {
        if (!spooled_ || spooled_->keys != layout->keys)
            startRun(layout->keys);
        spooled_ = layout;
    }
    row_.resize(layout->stats.size() + 1);
    row_[0] = std::bit_cast<double>(now);
    for (std::size_t i = 0; i < layout->stats.size(); ++i)
        row_[i + 1] = layout->stats[i]->value();
    appendRow(row_.data());
}

namespace
{

/** The unlinked spool file for interval samples; fatal() on error. */
int
createSpool()
{
    std::error_code ec;
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path(ec);
    fatal_if(bool(ec),
             "cannot create the interval-sample spool: no temporary"
             " directory (%s); set TMPDIR to a writable directory",
             ec.message().c_str());
    // An O_TMPFILE file never has a name, so no exit can leave it
    // behind. Only where the file system refuses one does the spool
    // get a name, removed as soon as the file is open.
    int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
    if (fd < 0 && (errno == EOPNOTSUPP || errno == EISDIR)) {
        std::string path = (dir / "minnow-samples-XXXXXX").string();
        fd = ::mkostemp(path.data(), O_CLOEXEC);
        if (fd >= 0)
            ::unlink(path.c_str());
    }
    fatal_if(fd < 0,
             "cannot create the interval-sample spool in %s (%s);"
             " set TMPDIR to a writable directory",
             dir.c_str(), std::strerror(errno));
    return fd;
}

void
spoolWrite(int fd, std::uint64_t at, const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n) {
        const ssize_t w = ::pwrite(fd, p, n, off_t(at));
        if (w < 0 && errno == EINTR)
            continue;
        fatal_if(w <= 0, "cannot write the interval-sample spool: %s",
                 w < 0 ? std::strerror(errno) : "no space written");
        p += w;
        at += std::uint64_t(w);
        n -= std::size_t(w);
    }
}

void
spoolRead(int fd, std::uint64_t at, void *data, std::size_t n)
{
    char *p = static_cast<char *>(data);
    while (n) {
        const ssize_t r = ::pread(fd, p, n, off_t(at));
        if (r < 0 && errno == EINTR)
            continue;
        fatal_if(r <= 0, "cannot read the interval-sample spool: %s",
                 r < 0 ? std::strerror(errno) : "short file");
        p += r;
        at += std::uint64_t(r);
        n -= std::size_t(r);
    }
}

} // anonymous namespace

StatsRegistry::~StatsRegistry()
{
    if (spoolFd_ >= 0)
        ::close(spoolFd_);
}

void
StatsRegistry::startRun(const std::vector<std::string> &keys)
{
    if (spoolFd_ < 0)
        spoolFd_ = createSpool();
    std::uint64_t head[2] = {keys.size(), 0};
    std::vector<std::uint32_t> lens;
    lens.reserve(keys.size());
    for (const std::string &k : keys) {
        lens.push_back(std::uint32_t(k.size()));
        head[1] += k.size();
    }
    std::string rec(reinterpret_cast<const char *>(head), sizeof head);
    rec.append(reinterpret_cast<const char *>(lens.data()),
               lens.size() * sizeof(std::uint32_t));
    for (const std::string &k : keys)
        rec += k;
    SampleRun r;
    r.layoutAt = spoolEnd_;
    r.rowsAt = spoolEnd_ + rec.size();
    r.width = keys.size();
    r.first = sampleCount();
    spoolWrite(spoolFd_, spoolEnd_, rec.data(), rec.size());
    spoolEnd_ = r.rowsAt;
    runs_.push_back(r);
}

void
StatsRegistry::appendRow(const double *row)
{
    SampleRun &r = runs_.back();
    const std::size_t bytes = (r.width + 1) * sizeof(double);
    spoolWrite(spoolFd_, spoolEnd_, row, bytes);
    spoolEnd_ += bytes;
    ++r.rows;
}

std::vector<std::string>
StatsRegistry::readKeys(const SampleRun &r) const
{
    std::uint64_t head[2];
    spoolRead(spoolFd_, r.layoutAt, head, sizeof head);
    std::vector<std::uint32_t> lens(static_cast<std::size_t>(head[0]));
    std::string text(std::size_t(head[1]), '\0');
    const std::uint64_t lensAt = r.layoutAt + sizeof head;
    spoolRead(spoolFd_, lensAt, lens.data(),
              lens.size() * sizeof(std::uint32_t));
    spoolRead(spoolFd_, lensAt + lens.size() * sizeof(std::uint32_t),
              text.data(), text.size());
    std::vector<std::string> keys;
    keys.reserve(lens.size());
    std::size_t at = 0;
    for (std::uint32_t len : lens) {
        keys.emplace_back(text, at, len);
        at += len;
    }
    return keys;
}

void
StatsRegistry::readRow(const SampleRun &r, std::size_t j,
                       std::vector<double> &row) const
{
    row.resize(r.width + 1);
    spoolRead(spoolFd_, r.rowsAt + j * row.size() * sizeof(double),
              row.data(), row.size() * sizeof(double));
}

std::size_t
StatsRegistry::sampleCount() const
{
    return runs_.empty() ? 0 : runs_.back().first + runs_.back().rows;
}

StatsRegistry::IntervalSample
StatsRegistry::sample(std::size_t i) const
{
    fatal_if(i >= sampleCount(), "no interval sample %zu (%zu taken)",
             i, sampleCount());
    auto it = std::upper_bound(
        runs_.begin(), runs_.end(), i,
        [](std::size_t n, const SampleRun &r) { return n < r.first; });
    const SampleRun &r = *--it;
    IntervalSample is;
    is.layout = std::size_t(it - runs_.begin());
    is.keys = readKeys(r);
    readRow(r, i - r.first, is.values);
    is.cycle = std::bit_cast<Cycle>(is.values.front());
    is.values.erase(is.values.begin());
    return is;
}

} // namespace minnow
