#include "mem/prefetcher.hh"

namespace minnow::mem
{

//
// StridePrefetcher
//

StridePrefetcher::StridePrefetcher(std::uint32_t distance,
                                   std::uint32_t degree)
    : distance_(distance), degree_(degree), table_(kEntries)
{
}

StridePrefetcher::Entry &
StridePrefetcher::entryFor(std::uint16_t site)
{
    return table_[site % kEntries];
}

void
StridePrefetcher::observe(const LoadObservation &obs,
                          std::vector<Addr> &out)
{
    Entry &e = entryFor(obs.site);
    if (!e.valid) {
        e.valid = true;
        e.lastAddr = obs.addr;
        e.stride = 0;
        e.confidence = 0;
        return;
    }
    std::int64_t stride = std::int64_t(obs.addr) -
                          std::int64_t(e.lastAddr);
    if (stride != 0 && stride == e.stride) {
        if (e.confidence < 4)
            ++e.confidence;
    } else if (stride != 0) {
        e.stride = stride;
        e.confidence = 0;
    }
    // stride == 0 is a re-reference of the same line (a flag poll,
    // a spin loop), not a new stream: leave the learned stride and
    // its confidence untouched.
    e.lastAddr = obs.addr;
    if (e.confidence >= 2 && e.stride != 0) {
        for (std::uint32_t d = 0; d < degree_; ++d) {
            std::int64_t target = std::int64_t(obs.addr) +
                e.stride * std::int64_t(distance_ + d);
            if (target > 0)
                out.push_back(lineAddr(Addr(target)));
        }
    }
}

//
// ImpPrefetcher
//

ImpPrefetcher::ImpPrefetcher(ValueOracle oracle, std::uint32_t distance)
    : oracle_(std::move(oracle)),
      distance_(distance),
      streams_(kStreams),
      indirects_(kIndirects)
{
}

ImpPrefetcher::StreamEntry &
ImpPrefetcher::streamFor(std::uint16_t site)
{
    return streams_[site % kStreams];
}

ImpPrefetcher::IndirectEntry &
ImpPrefetcher::indirectFor(std::uint16_t site)
{
    return indirects_[site % kIndirects];
}

void
ImpPrefetcher::observe(const LoadObservation &obs,
                       std::vector<Addr> &out)
{
    // Part 1: stride/stream detection on this site.
    StreamEntry &s = streamFor(obs.site);
    bool streaming = false;
    if (!s.valid) {
        s.valid = true;
        s.lastAddr = obs.addr;
        s.stride = 0;
        s.confidence = 0;
    } else {
        std::int64_t stride = std::int64_t(obs.addr) -
                              std::int64_t(s.lastAddr);
        if (stride != 0 && stride == s.stride) {
            if (s.confidence < 4)
                ++s.confidence;
        } else if (stride != 0) {
            s.stride = stride;
            s.confidence = 0;
        }
        s.lastAddr = obs.addr;
        streaming = s.confidence >= 2 && s.stride != 0;
    }
    s.lastValue = obs.value;
    s.hasLastValue = obs.hasValue;

    // Part 2: indirect-pattern training. If the *previous* observed
    // load was an index-carrying stream access with value v, try to
    // explain this load's address as base + (v << shift).
    if (haveLastIndex_ && obs.site != lastIndexSite_) {
        IndirectEntry &ind = indirectFor(obs.site);
        if (!ind.valid && !ind.training) {
            ind.training = true;
            ind.indexSite = lastIndexSite_;
            ind.sampleValue = lastIndexValue_;
            ind.sampleAddr = obs.addr;
        } else if (!ind.valid && ind.training &&
                   ind.indexSite == lastIndexSite_ &&
                   lastIndexValue_ != ind.sampleValue) {
            // Two samples: solve addr = base + (value << shift).
            std::int64_t dAddr = std::int64_t(obs.addr) -
                                 std::int64_t(ind.sampleAddr);
            std::int64_t dVal = std::int64_t(lastIndexValue_) -
                                std::int64_t(ind.sampleValue);
            for (std::uint32_t shift = 0; shift <= 6; ++shift) {
                if (dVal != 0 && dAddr == (dVal << shift)) {
                    ind.valid = true;
                    ind.shift = shift;
                    ind.base = obs.addr -
                        (lastIndexValue_ << shift);
                    ind.confidence = 1;
                    ++patterns_;
                    break;
                }
            }
            if (!ind.valid) {
                // Re-sample; pattern may start later.
                ind.sampleValue = lastIndexValue_;
                ind.sampleAddr = obs.addr;
            }
        } else if (ind.valid && ind.indexSite == lastIndexSite_) {
            // Verify and reinforce / decay.
            Addr predicted = ind.base + (lastIndexValue_ << ind.shift);
            if (predicted == obs.addr) {
                if (ind.confidence < 4)
                    ++ind.confidence;
            } else if (ind.confidence > 0) {
                --ind.confidence;
            } else {
                ind = IndirectEntry{};
            }
        }
    }

    // Part 3: issue. On a confident index stream, prefetch the index
    // line ahead and, for every indirect pattern keyed off this site,
    // read B[i + distance] and prefetch A[B[i + distance]].
    if (streaming) {
        std::int64_t ahead = std::int64_t(obs.addr) +
            s.stride * std::int64_t(distance_);
        if (ahead > 0)
            out.push_back(lineAddr(Addr(ahead)));

        if (obs.hasValue) {
            for (auto &ind : indirects_) {
                if (!ind.valid || ind.indexSite != obs.site ||
                    ind.confidence < 2) {
                    continue;
                }
                std::uint64_t futureVal = 0;
                if (ahead > 0 && oracle_ &&
                    oracle_(Addr(ahead), futureVal)) {
                    out.push_back(lineAddr(
                        ind.base + (futureVal << ind.shift)));
                }
            }
        }
    }

    if (obs.hasValue) {
        lastIndexSite_ = obs.site;
        lastIndexValue_ = obs.value;
        haveLastIndex_ = true;
    }
}

} // namespace minnow::mem
