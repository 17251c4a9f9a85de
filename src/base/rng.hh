/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The simulator must be bit-reproducible run to run, so every stochastic
 * decision (branch mispredict draws, graph generation, workload seeds)
 * flows through an explicitly seeded Rng instance. The generator is
 * xoshiro256** (Blackman & Vigna), which is fast, has a 2^256-1 period,
 * and passes BigCrush.
 */

#ifndef MINNOW_BASE_RNG_HH
#define MINNOW_BASE_RNG_HH

#include <cstdint>

#include "base/ckpt.hh"

namespace minnow
{

/** Deterministic xoshiro256** pseudo-random generator. */
class Rng
{
  public:
    /** Seed via splitmix64 so that nearby seeds give unrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine
        // here: modulo bias at 64 bits is negligible for our bounds.
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        return real() < p;
    }

    /** Serialize the full generator state. */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(state_);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace minnow

#endif // MINNOW_BASE_RNG_HH
