#include "mem/noc.hh"

#include <cstddef>

namespace minnow::mem
{

namespace
{

enum Direction
{
    kEast = 0,
    kWest = 1,
    kNorth = 2,
    kSouth = 3,
};

/** |a - b| for unsigned coordinates. */
std::uint32_t
absDiff(std::uint32_t a, std::uint32_t b)
{
    return a < b ? b - a : a - b;
}

} // anonymous namespace

Noc::Noc(const NocParams &params)
    : params_(params),
      width_(params.meshWidth),
      tileX_(std::size_t(params.meshWidth) * params.meshWidth),
      tileY_(tileX_.size()),
      links_(tileX_.size() * 4,
             LinkMeter(std::uint32_t(LinkMeter::kWindow)))
{
    for (std::uint32_t y = 0, tile = 0; y < width_; ++y) {
        for (std::uint32_t x = 0; x < width_; ++x, ++tile) {
            tileX_[tile] = x;
            tileY_[tile] = y;
        }
    }
}

std::uint32_t
Noc::hops(std::uint32_t src, std::uint32_t dst) const
{
    return absDiff(tileX_[src], tileX_[dst]) +
           absDiff(tileY_[src], tileY_[dst]);
}

Cycle
Noc::idleLatency(std::uint32_t src, std::uint32_t dst) const
{
    return Cycle(hops(src, dst)) * params_.cyclesPerHop;
}

Cycle
Noc::traverse(std::uint32_t src, std::uint32_t dst, Cycle start)
{
    ++messages_;
    if (src == dst)
        return start;

    const std::uint32_t sx = tileX_[src], sy = tileY_[src];
    const std::uint32_t dx = tileX_[dst], dy = tileY_[dst];
    const std::uint32_t xHops = absDiff(sx, dx);
    const std::uint32_t yHops = absDiff(sy, dy);
    const Cycle perHop = params_.cyclesPerHop;
    const Cycle ideal = start + Cycle(xHops + yHops) * perHop;
    totalHops_ += xHops + yHops;
    if (!params_.modelContention)
        return ideal;

    // X first, then Y (dimension-ordered routing avoids deadlock).
    // Each hop books the link leaving its tile: one tile east or
    // west moves the link index by 4, one row by 4 * width (indices
    // are unsigned, so a westward step wraps harmlessly past 0).
    Cycle t = start;
    std::size_t link = std::size_t(src) * 4 + (sx < dx ? kEast : kWest);
    std::size_t step = sx < dx ? 4 : std::size_t(-4);
    for (std::uint32_t i = 0; i < xHops; ++i, link += step)
        t = links_[link].reserve(t) + perHop;

    const std::size_t turn = std::size_t(sy) * width_ + dx;
    link = turn * 4 + (sy < dy ? kSouth : kNorth);
    step = sy < dy ? std::size_t(4) * width_
                   : std::size_t(0) - std::size_t(4) * width_;
    for (std::uint32_t i = 0; i < yHops; ++i, link += step)
        t = links_[link].reserve(t) + perHop;

    if (t > ideal)
        contention_ += t - ideal;
    return t;
}

} // namespace minnow::mem
