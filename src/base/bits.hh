/**
 * @file
 * Small bit-manipulation helpers used by caches and allocators.
 */

#ifndef MINNOW_BASE_BITS_HH
#define MINNOW_BASE_BITS_HH

#include <bit>
#include <cstdint>

namespace minnow
{

/** True if x is a power of two (0 is not). */
constexpr bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Floor of log2(x); x must be nonzero. */
constexpr std::uint32_t
floorLog2(std::uint64_t x)
{
    return 63u - static_cast<std::uint32_t>(std::countl_zero(x));
}

/** Ceiling of log2(x); x must be nonzero. */
constexpr std::uint32_t
ceilLog2(std::uint64_t x)
{
    return x <= 1 ? 0 : floorLog2(x - 1) + 1;
}

/** Round v up to the next multiple of align (a power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Round v down to a multiple of align (a power of two). */
constexpr std::uint64_t
alignDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/**
 * Mix the bits of a 64-bit value (finalizer from MurmurHash3).
 * Used to spread addresses across L3 banks and DRAM channels.
 */
constexpr std::uint64_t
hashMix(std::uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

/**
 * Division and remainder by a divisor fixed at construction, without
 * a divide instruction (Lemire, Kaser and Kurz, "Faster remainder by
 * direct computation", 2019). One code path for every divisor >= 1.
 */
class Divisor
{
  public:
    explicit constexpr Divisor(std::uint32_t d)
        : d_(d),
          mod_(~Wide(0) / d + 1),
          div_(((Wide(1) << 64) + d - 1) / d)
    {
    }

    /**
     * x % d for any 64-bit x: the high 64 bits of
     * (ceil(2^128 / d) * x mod 2^128) * d. (For d = 1 the multiplier
     * wraps to 0, which yields the right remainder, 0.)
     */
    constexpr std::uint64_t
    mod(std::uint64_t x) const
    {
        Wide low = mod_ * x;
        Wide hi = (low >> 64) * d_;
        Wide lo = (Wide(std::uint64_t(low)) * d_) >> 64;
        return std::uint64_t((hi + lo) >> 64);
    }

    /**
     * x / d for any 32-bit x: (ceil(2^64 / d) * x) >> 64. The
     * multiplier overshoots 2^64 / d by less than 1, so the product
     * overshoots x / d by less than 2^-32 <= 1/d: never enough to
     * reach the next integer.
     */
    constexpr std::uint32_t
    div(std::uint32_t x) const
    {
        return std::uint32_t((div_ * x) >> 64);
    }

  private:
    using Wide = unsigned __int128;

    std::uint32_t d_;
    Wide mod_; //!< ceil(2^128 / d), mod 2^128.
    Wide div_; //!< ceil(2^64 / d).
};

} // namespace minnow

#endif // MINNOW_BASE_BITS_HH
