/**
 * @file
 * Multi-channel DRAM timing model.
 *
 * Each channel is a bandwidth-limited server metered over fixed time
 * windows (see BandwidthMeter): a line transfer books one unit of its
 * channel's per-window capacity and sees the fixed access latency
 * plus any wait for a window with spare capacity. Lines are spread
 * across channels by address hash. This is deliberately simple —
 * Fig. 21 only needs the latency-vs-bandwidth transition to emerge
 * as channels are removed.
 */

#ifndef MINNOW_MEM_DRAM_HH
#define MINNOW_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "base/bits.hh"
#include "base/ckpt.hh"
#include "base/types.hh"
#include "mem/bandwidth.hh"
#include "sim/config.hh"

namespace minnow::mem
{

/** Channel-interleaved DRAM model. */
class Dram
{
  public:
    explicit Dram(const DramParams &params)
        : params_(params),
          serviceCycles_((params.serviceFp128 + 127) / 128),
          channelMod_(params.channels)
    {
        // Transfers per 128-cycle window at this channel rate.
        std::uint32_t perWindow = std::uint32_t(
            (Meter::kWindow * 128) / params.serviceFp128);
        if (perWindow == 0)
            perWindow = 1;
        channels_.assign(params.channels, Meter(perWindow));
    }

    /** Channel for a line (hash-interleaved). */
    std::uint32_t
    channelOf(Addr lnum) const
    {
        return std::uint32_t(channelMod_.mod(hashMix(lnum)));
    }

    /**
     * Service one line read/write arriving at @p arrival.
     * @return Completion cycle of the data transfer.
     */
    Cycle
    access(Addr lnum, Cycle arrival)
    {
        ++accesses_;
        std::uint32_t chan = channelOf(lnum);
        Cycle start = channels_[chan].reserve(arrival);
        if (start > arrival)
            queueCycles_ += start - arrival;
        return start + serviceCycles_ + params_.accessLatency;
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t queueCycles() const { return queueCycles_; }

    void
    resetStats()
    {
        accesses_ = 0;
        queueCycles_ = 0;
    }

    /**
     * Serialize counters and per-channel meter occupancy in bulk.
     * params_/serviceCycles_/channelMod_ are construction-time config,
     * covered by the machine-level config fingerprint.
     */
    void
    checkpoint(ckpt::Ckpt &ck)
    {
        ck.io(accesses_);
        ck.io(queueCycles_);
        ck.io(channels_);
        ck.transient("params_ serviceCycles_ channelMod_");
    }

  private:
    using Meter = BandwidthMeter<7, 32>;

    DramParams params_;
    Cycle serviceCycles_;
    Divisor channelMod_; //!< % channels without a divide.
    std::vector<Meter> channels_;

    std::uint64_t accesses_ = 0;
    std::uint64_t queueCycles_ = 0;
};

} // namespace minnow::mem

#endif // MINNOW_MEM_DRAM_HH
