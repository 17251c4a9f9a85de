/**
 * @file
 * 2-D mesh network-on-chip timing model.
 *
 * Dimension-ordered (X-Y) routing per Table 3: 8x8 mesh, 3 cycles per
 * hop, 512-bit links. A 64 B line plus header is one flit at 512-bit
 * links, so each message occupies each traversed link for one cycle;
 * contention is modelled by per-link next-free bookkeeping.
 */

#ifndef MINNOW_MEM_NOC_HH
#define MINNOW_MEM_NOC_HH

#include <cstdint>
#include <vector>

#include "base/ckpt.hh"
#include "base/types.hh"
#include "mem/bandwidth.hh"
#include "sim/config.hh"

namespace minnow::mem
{

/** Mesh NoC latency/contention model. */
class Noc
{
  public:
    explicit Noc(const NocParams &params);

    /**
     * Send one message from tile @p src to tile @p dst starting at
     * @p start; returns the arrival cycle and books link occupancy.
     */
    Cycle traverse(std::uint32_t src, std::uint32_t dst, Cycle start);

    /** Pure latency of src->dst with an idle network (stats, tests). */
    Cycle idleLatency(std::uint32_t src, std::uint32_t dst) const;

    /** Manhattan hop count between two tiles. */
    std::uint32_t hops(std::uint32_t src, std::uint32_t dst) const;

    std::uint64_t messages() const { return messages_; }
    std::uint64_t totalHops() const { return totalHops_; }
    std::uint64_t contentionCycles() const { return contention_; }

    void
    resetStats()
    {
        messages_ = 0;
        totalHops_ = 0;
        contention_ = 0;
    }

    /**
     * Serialize counters and per-link meter occupancy (BandwidthMeter
     * is trivially copyable, so the link vector transfers in bulk).
     * params_/width_ and the tile tables are construction-time
     * config, covered by the machine-level config fingerprint.
     */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(messages_);
        ck.io(totalHops_);
        ck.io(contention_);
        ck.io(links_);
        ck.transient("params_ width_ tileX_ tileY_");
    }

  private:
    /** One flit per cycle per link -> window-width flits/window. */
    using LinkMeter = BandwidthMeter<5, 16>;

    NocParams params_;
    std::uint32_t width_;
    /** Tile id -> mesh column / row (no divide on the hot path). */
    std::vector<std::uint32_t> tileX_;
    std::vector<std::uint32_t> tileY_;
    /** Links: tile * 4 + direction (E, W, N, S). */
    std::vector<LinkMeter> links_;

    std::uint64_t messages_ = 0;
    std::uint64_t totalHops_ = 0;
    std::uint64_t contention_ = 0;
};

} // namespace minnow::mem

#endif // MINNOW_MEM_NOC_HH
