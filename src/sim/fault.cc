#include "sim/fault.hh"

#include <cctype>
#include <cstdlib>

#include "base/logging.hh"
#include "sim/timeline.hh"

namespace minnow
{

namespace
{

/** Strip leading/trailing whitespace. */
std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/**
 * Absolute spec offset of token @p tok inside @p text (which itself
 * starts at @p base in the spec). Searches from @p from so repeated
 * tokens resolve to the occurrence being parsed.
 */
std::size_t
tokenOffset(const std::string &text, const std::string &tok,
            std::size_t base, std::size_t from = 0)
{
    if (tok.empty())
        return base + from;
    std::size_t pos = text.find(tok, from);
    return base + (pos == std::string::npos ? from : pos);
}

std::uint64_t
parseUint(const std::string &key, const std::string &value,
          std::size_t off)
{
    char *end = nullptr;
    std::uint64_t v = std::strtoull(value.c_str(), &end, 0);
    fatal_if(end == value.c_str() || *end != '\0',
             "fault spec: bad value '%s' for key '%s' at offset %zu",
             value.c_str(), key.c_str(), off);
    return v;
}

double
parseProb(const std::string &value, std::size_t off)
{
    char *end = nullptr;
    double p = std::strtod(value.c_str(), &end);
    fatal_if(end == value.c_str() || *end != '\0',
             "fault spec: bad probability '%s' at offset %zu",
             value.c_str(), off);
    fatal_if(p < 0.0 || p > 1.0,
             "fault spec: probability '%s' at offset %zu is outside "
             "[0, 1]", value.c_str(), off);
    return p;
}

/** FNV-1a over the spec so different specs get unrelated streams. */
std::uint64_t
hashSpec(const std::string &spec)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : spec) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // anonymous namespace

const char *
FaultClause::kindName() const
{
    switch (kind) {
      case Kind::EngineKill:
        return "engine_kill";
      case Kind::EngineStall:
        return "engine_stall";
      case Kind::NocDelay:
        return "noc_delay";
      case Kind::DramDelay:
        return "dram_delay";
      case Kind::DropPrefetch:
        return "drop_prefetch";
      case Kind::CreditStarve:
        return "credit_starve";
    }
    return "?";
}

FaultClause
FaultInjector::parseClause(const std::string &text, std::size_t base)
{
    std::size_t colon = text.find(':');
    std::string kind = trim(text.substr(0, colon));
    std::size_t kindOff = tokenOffset(text, kind, base);

    FaultClause c;
    bool needsCore = false;
    if (kind == "engine_kill") {
        c.kind = FaultClause::Kind::EngineKill;
        needsCore = true;
    } else if (kind == "engine_stall") {
        c.kind = FaultClause::Kind::EngineStall;
        needsCore = true;
    } else if (kind == "noc_delay") {
        c.kind = FaultClause::Kind::NocDelay;
    } else if (kind == "dram_delay") {
        c.kind = FaultClause::Kind::DramDelay;
    } else if (kind == "drop_prefetch") {
        c.kind = FaultClause::Kind::DropPrefetch;
    } else if (kind == "credit_starve") {
        c.kind = FaultClause::Kind::CreditStarve;
        needsCore = true;
    } else {
        fatal("fault spec: unknown fault kind '%s' at offset %zu",
              kind.c_str(), kindOff);
    }

    if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start <= text.size()) {
            std::size_t comma = text.find(',', start);
            std::size_t end =
                comma == std::string::npos ? text.size() : comma;
            std::string kv = trim(text.substr(start, end - start));
            std::size_t kvOff = tokenOffset(text, kv, base, start);
            std::size_t eq = kv.find('=');
            fatal_if(!kv.empty() && eq == std::string::npos,
                     "fault spec: expected key=value, got '%s' at "
                     "offset %zu", kv.c_str(), kvOff);
            if (!kv.empty()) {
                std::string key = trim(kv.substr(0, eq));
                std::string value = trim(kv.substr(eq + 1));
                std::size_t valOff =
                    tokenOffset(text, value, base, start + eq + 1);
                if (key == "core") {
                    c.core = CoreId(parseUint(key, value, valOff));
                } else if (key == "at") {
                    c.at = parseUint(key, value, valOff);
                } else if (key == "dur") {
                    c.dur = parseUint(key, value, valOff);
                } else if (key == "p") {
                    c.p = parseProb(value, valOff);
                } else if (key == "add") {
                    c.add = parseUint(key, value, valOff);
                } else {
                    fatal("fault spec: unknown key '%s' at offset "
                          "%zu", key.c_str(), kvOff);
                }
            }
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
    }

    fatal_if(needsCore && c.core == FaultClause::kAnyCore,
             "fault spec: clause '%s' at offset %zu needs core=<id>",
             kind.c_str(), kindOff);
    fatal_if(c.kind == FaultClause::Kind::EngineStall && c.dur == 0,
             "fault spec: clause '%s' at offset %zu needs "
             "dur=<cycles>", kind.c_str(), kindOff);
    fatal_if((c.kind == FaultClause::Kind::NocDelay ||
              c.kind == FaultClause::Kind::DramDelay) &&
                 c.add == 0,
             "fault spec: clause '%s' at offset %zu needs "
             "add=<cycles>", kind.c_str(), kindOff);
    return c;
}

FaultInjector::FaultInjector(const std::string &spec,
                             std::uint64_t seed)
    : spec_(spec), rng_(seed ^ hashSpec(spec))
{
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t semi = spec.find(';', start);
        std::size_t end =
            semi == std::string::npos ? spec.size() : semi;
        std::string clause = spec.substr(start, end - start);
        if (!trim(clause).empty())
            clauses_.push_back(parseClause(clause, start));
        if (semi == std::string::npos)
            break;
        start = semi + 1;
    }
    fatal_if(clauses_.empty(), "fault spec '%s' has no clauses",
             spec.c_str());
}

bool
FaultInjector::inWindow(const FaultClause &c) const
{
    Cycle t = now();
    if (t < c.at)
        return false;
    return c.dur == 0 || t < c.at + c.dur;
}

bool
FaultInjector::targets(const FaultClause &c, CoreId core)
{
    return c.core == FaultClause::kAnyCore || c.core == core;
}

Cycle
FaultInjector::nocExtraDelay()
{
    Cycle extra = 0;
    for (const FaultClause &c : clauses_) {
        if (c.kind != FaultClause::Kind::NocDelay || !inWindow(c))
            continue;
        if (rng_.chance(c.p)) {
            stats_.nocDelays += 1;
            stats_.nocDelayCycles += c.add;
            extra += c.add;
        }
    }
    return extra;
}

Cycle
FaultInjector::dramExtraDelay()
{
    Cycle extra = 0;
    for (const FaultClause &c : clauses_) {
        if (c.kind != FaultClause::Kind::DramDelay || !inWindow(c))
            continue;
        if (rng_.chance(c.p)) {
            stats_.dramDelays += 1;
            stats_.dramDelayCycles += c.add;
            extra += c.add;
        }
    }
    return extra;
}

bool
FaultInjector::dropPrefetch(CoreId core)
{
    for (const FaultClause &c : clauses_) {
        if (c.kind != FaultClause::Kind::DropPrefetch ||
            !targets(c, core) || !inWindow(c))
            continue;
        if (rng_.chance(c.p)) {
            stats_.prefetchDrops += 1;
            if (tl_)
                tl_->instant(tl_->simTrack(),
                             timeline::Name::FaultPrefetchDrop,
                             now());
            return true;
        }
    }
    return false;
}

bool
FaultInjector::swallowCreditReturn(CoreId core)
{
    for (const FaultClause &c : clauses_) {
        if (c.kind != FaultClause::Kind::CreditStarve ||
            !targets(c, core) || !inWindow(c))
            continue;
        stats_.creditsSwallowed += 1;
        if (tl_)
            tl_->instant(tl_->simTrack(),
                         timeline::Name::FaultCreditSwallow, now());
        return true;
    }
    return false;
}

void
FaultInjector::registerStats(StatsRegistry &reg)
{
    statsClaim_ = StatsClaim(reg, "faults");
    StatsGroup &g = reg.freshGroup("faults");
    g.formula("clauses", "parsed fault clauses in the spec",
              [this] { return double(clauses_.size()); });
    g.formula("nocDelays", "NoC traversals hit by a delay fault",
              [this] { return double(stats_.nocDelays); });
    g.formula("nocDelayCycles", "extra NoC cycles injected",
              [this] { return double(stats_.nocDelayCycles); });
    g.formula("dramDelays", "DRAM accesses hit by a delay fault",
              [this] { return double(stats_.dramDelays); });
    g.formula("dramDelayCycles", "extra DRAM cycles injected",
              [this] { return double(stats_.dramDelayCycles); });
    g.formula("prefetchDrops", "prefetch issues dropped by faults",
              [this] { return double(stats_.prefetchDrops); });
    g.formula("creditsSwallowed",
              "credit returns lost to starvation faults",
              [this] { return double(stats_.creditsSwallowed); });
}

} // namespace minnow
