/**
 * @file
 * Windowed bandwidth meter.
 *
 * Timing requests arrive out of order in simulated time (cores and
 * engines run ahead of the global clock by bounded and occasionally
 * large skews, e.g. dependent-load chains). A single next-free cursor
 * mis-serializes such streams catastrophically: one far-future
 * reservation blocks every later near-term request. Instead, each
 * resource (DRAM channel, NoC link) meters capacity per fixed time
 * window over a small ring: a request books the first window at or
 * after its arrival with spare capacity, independent of the order
 * requests are presented in.
 */

#ifndef MINNOW_MEM_BANDWIDTH_HH
#define MINNOW_MEM_BANDWIDTH_HH

#include <array>
#include <cstdint>

#include "base/ckpt.hh"
#include "base/types.hh"

namespace minnow::mem
{

/**
 * Capacity meter over fixed windows with a ring buffer.
 *
 * @tparam WindowBits log2 of the window width in cycles.
 * @tparam RingSize   Number of windows tracked around each request.
 */
template <unsigned WindowBits = 7, unsigned RingSize = 32>
class BandwidthMeter
{
  public:
    explicit BandwidthMeter(std::uint32_t capacityPerWindow = 1)
        : capacity_(capacityPerWindow)
    {
        slots_.fill(Slot{});
    }

    void setCapacity(std::uint32_t c) { capacity_ = c; }

    static constexpr Cycle kWindow = Cycle(1) << WindowBits;

    /**
     * Book one transfer arriving at @p t.
     * @return Start cycle of service (>= t); t + RingSize windows if
     *         everything in range is saturated (overload penalty).
     */
    Cycle
    reserve(Cycle t)
    {
        std::uint64_t w = t >> WindowBits;
        for (unsigned i = 0; i < RingSize; ++i) {
            std::uint64_t idx = w + i;
            Slot &s = slots_[idx % RingSize];
            if (s.epoch != idx) {
                // A stale (or never-used) slot: recycle it for this
                // window. Slots behind the booking frontier cannot
                // be revisited because arrival skew is bounded.
                s.epoch = idx;
                s.used = 0;
            }
            if (s.used < capacity_) {
                s.used += 1;
                Cycle windowStart = Cycle(idx) << WindowBits;
                return t > windowStart ? t : windowStart;
            }
        }
        return t + (Cycle(RingSize) << WindowBits);
    }

    /** Capacity check without booking (tests). */
    std::uint32_t
    usedInWindow(Cycle t) const
    {
        std::uint64_t idx = t >> WindowBits;
        const Slot &s = slots_[idx % RingSize];
        return s.epoch == idx ? s.used : 0;
    }

    // Per-member: Slot carries 4 padding bytes after `used`, which
    // must not leak into a checkpoint stream.
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(capacity_);
        for (const Slot &s : slots_) {
            ck.io(s.epoch);
            ck.io(s.used);
        }
    }

  private:
    struct Slot
    {
        std::uint64_t epoch = ~std::uint64_t(0);
        std::uint32_t used = 0;
    };

    std::uint32_t capacity_;
    std::array<Slot, RingSize> slots_;
};

} // namespace minnow::mem

#endif // MINNOW_MEM_BANDWIDTH_HH
