/**
 * @file
 * Set-associative cache array with LRU replacement.
 *
 * This class is pure mechanism: lookup, fill, invalidate. Policy
 * (coherence, inclusion, prefetch-credit accounting) lives in
 * MemorySystem. Each line carries the 1-bit prefetch metadata from
 * Section 5.3.1 of the paper, plus dirty/exclusive state used by the
 * MESI-lite directory.
 *
 * Host layout (DESIGN.md 5m): a frame is one 64-bit word, the line
 * number shifted up by kFlagBits with the state flags below it, so
 * a set walk reads 8 bytes per way. Each set keeps one recency-order
 * word (4-bit way ids, most recent in the low nibble), which orders
 * the ways exactly as per-frame last-touch stamps would. A frame's
 * fill-in-flight cycle lives in a side array, read only when the
 * frame's kHasReadyAt flag says it was set.
 */

#ifndef MINNOW_MEM_CACHE_HH
#define MINNOW_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "base/bits.hh"
#include "base/ckpt.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "sim/config.hh"

namespace minnow::mem
{

/** Result of a fill: which line (if any) was evicted. */
struct Eviction
{
    bool valid = false;      //!< a victim was displaced.
    Addr lineNum = 0;        //!< victim line number.
    bool dirty = false;
    bool prefetch = false;   //!< victim was an unused prefetch.
    bool prefetchHw = false; //!< victim was a HW-prefetched line.
};

/** Handle to one frame of a CacheArray; false means "no frame". */
class Frame
{
  public:
    constexpr Frame() = default;
    explicit constexpr Frame(std::uint32_t idx) : idx_(idx) {}

    explicit operator bool() const { return idx_ != kNone; }
    std::uint32_t index() const { return idx_; }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);
    std::uint32_t idx_ = kNone;
};

/** A single cache structure (one level, one bank). */
class CacheArray
{
  public:
    /** Largest associativity a recency-order word can hold. */
    static constexpr std::uint32_t kMaxWays = 16;

    /** Panics unless sets are a power of two and assoc is 1..16. */
    explicit CacheArray(const CacheParams &params);

    /** Look up a line; returns its first matching frame, touching LRU. */
    Frame
    lookup(Addr lnum)
    {
        const std::uint32_t set = setOf(lnum);
        const std::uint32_t base = set * assoc_;
        const std::uint64_t want = (lnum << kFlagBits) | kValid;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if ((frames_[base + w] & kMatchMask) == want) {
                touch(set, w);
                return Frame(base + w);
            }
        }
        return Frame();
    }

    /** Look up without disturbing LRU (for probes and stats). */
    Frame
    probe(Addr lnum) const
    {
        const std::uint32_t base = setOf(lnum) * assoc_;
        const std::uint64_t want = (lnum << kFlagBits) | kValid;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if ((frames_[base + w] & kMatchMask) == want)
                return Frame(base + w);
        }
        return Frame();
    }

    /**
     * Insert a line into the first invalid way of its set, else the
     * LRU way. The line is not looked up first: filling a line that
     * is already resident installs a second frame for it.
     *
     * @param lnum      Line number to insert.
     * @param isPrefetch Mark the line with the prefetch bit.
     * @param[out] ev   Describes the displaced victim, if any.
     * @return The filled frame.
     */
    Frame fill(Addr lnum, bool isPrefetch, Eviction &ev);

    /** Drop a line if present (first match); true if it was there. */
    bool
    invalidate(Addr lnum)
    {
        Frame f = probe(lnum);
        if (f)
            frames_[f.index()] &= ~kValid;
        return bool(f);
    }

    /** Drop the line held by frame @p f. */
    void invalidate(Frame f) { frames_[f.index()] &= ~kValid; }

    /** Count of currently valid lines (tests and occupancy stats). */
    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t word : frames_)
            n += word & kValid;
        return n;
    }

    // ---- per-frame state (f must come from lookup/probe/fill) ----

    bool dirty(Frame f) const { return flag(f, kDirty); }
    bool exclusive(Frame f) const { return flag(f, kExclusive); }
    /** Prefetched, not yet used. */
    bool prefetch(Frame f) const { return flag(f, kPrefetch); }
    /** Prefetched by a HW prefetcher (no credit). */
    bool prefetchHw(Frame f) const { return flag(f, kPrefetchHw); }

    void setDirty(Frame f, bool on) { setFlag(f, kDirty, on); }
    void setExclusive(Frame f, bool on) { setFlag(f, kExclusive, on); }
    void setPrefetchHw(Frame f, bool on) { setFlag(f, kPrefetchHw, on); }

    /** A demand access consumed the prefetch: clear both marks. */
    void
    clearPrefetch(Frame f)
    {
        frames_[f.index()] &= ~(kPrefetch | kPrefetchHw);
    }

    /** Fill-in-flight cycle; 0 unless setReadyAt() since the fill. */
    Cycle
    readyAt(Frame f) const
    {
        return flag(f, kHasReadyAt) ? readyAt_[f.index()] : 0;
    }

    void
    setReadyAt(Frame f, Cycle t)
    {
        if (readyAt_.empty())
            readyAt_.assign(frames_.size(), 0);
        readyAt_[f.index()] = t;
        frames_[f.index()] |= kHasReadyAt;
    }

    std::uint32_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return assoc_; }

    /**
     * Serialize the full array state: frame words and recency words
     * in bulk, plus the ready-cycle side array (empty until the
     * array's first setReadyAt()).
     */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(assoc_);
        ck.io(sets_);
        ck.io(setMask_);
        ck.io(frames_);
        ck.io(order_);
        ck.io(readyAt_);
    }

  private:
    // Frame word: line number << kFlagBits | flags. Line numbers are
    // byte addresses >> 6, so they fit in the 58 bits above the flags.
    static constexpr unsigned kFlagBits = 6;
    static constexpr std::uint64_t kValid = 1u << 0;
    static constexpr std::uint64_t kDirty = 1u << 1;
    static constexpr std::uint64_t kExclusive = 1u << 2;
    static constexpr std::uint64_t kPrefetch = 1u << 3;
    static constexpr std::uint64_t kPrefetchHw = 1u << 4;
    static constexpr std::uint64_t kHasReadyAt = 1u << 5;
    /** Bits compared by a lookup: the line number and kValid. */
    static constexpr std::uint64_t kMatchMask =
        ~((std::uint64_t(1) << kFlagBits) - 1) | kValid;

    std::uint32_t setOf(Addr lnum) const { return lnum & setMask_; }

    bool
    flag(Frame f, std::uint64_t bit) const
    {
        return frames_[f.index()] & bit;
    }

    void
    setFlag(Frame f, std::uint64_t bit, bool on)
    {
        std::uint64_t &word = frames_[f.index()];
        word = on ? word | bit : word & ~bit;
    }

    /** Make way @p w the most recent of set @p set. */
    void
    touch(std::uint32_t set, std::uint32_t w)
    {
        std::uint64_t &order = order_[set];
        if ((order & 0xF) == w)
            return;
        // Nibble position of w: the lowest zero nibble of order ^ w*1s
        // (borrows only ever flag nibbles above the first real zero;
        // unused nibbles past assoc_ sit above every way's position).
        std::uint64_t x = order ^ (w * 0x1111111111111111ull);
        std::uint64_t z =
            (x - 0x1111111111111111ull) & ~x & 0x8888888888888888ull;
        unsigned pos = unsigned(std::countr_zero(z)) & ~3u;
        std::uint64_t below = (std::uint64_t(1) << pos) - 1;
        std::uint64_t keep = ~(below | (std::uint64_t(0xF) << pos));
        order = (order & keep) | ((order & below) << 4) | w;
    }

    std::uint32_t assoc_;
    std::uint32_t sets_;
    Addr setMask_;
    std::vector<std::uint64_t> frames_; //!< one word per frame.
    std::vector<std::uint64_t> order_;  //!< one recency word per set.
    std::vector<Cycle> readyAt_;        //!< lazily sized side array.
};

inline CacheArray::CacheArray(const CacheParams &params)
    : assoc_(params.assoc),
      sets_(params.sets()),
      setMask_(params.sets() - 1),
      frames_(std::size_t(params.sets()) * params.assoc, 0)
{
    panic_if(!isPow2(sets_), "set count must be a power of two");
    panic_if(assoc_ == 0 || assoc_ > kMaxWays,
             "associativity %u outside 1..%u", assoc_, kMaxWays);
    // Initial recency order 0, 1, ..., assoc-1 (most recent first).
    // It only ever ranks ways that are all valid, and every valid way
    // has been moved to the front by its fill since.
    std::uint64_t order = 0;
    for (std::uint32_t w = 0; w < assoc_; ++w)
        order |= std::uint64_t(w) << (4 * w);
    order_.assign(sets_, order);
}

inline Frame
CacheArray::fill(Addr lnum, bool isPrefetch, Eviction &ev)
{
    panic_if(lnum >> (64 - kFlagBits),
             "line number %#llx does not fit a frame word",
             (unsigned long long)lnum);
    const std::uint32_t set = setOf(lnum);
    const std::uint32_t base = set * assoc_;
    std::uint32_t way =
        std::uint32_t(order_[set] >> (4 * (assoc_ - 1))) & 0xF;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (!(frames_[base + w] & kValid)) {
            way = w;
            break;
        }
    }
    std::uint64_t &word = frames_[base + way];
    ev = Eviction{};
    if (word & kValid) {
        ev.valid = true;
        ev.lineNum = word >> kFlagBits;
        ev.dirty = word & kDirty;
        ev.prefetch = word & kPrefetch;
        ev.prefetchHw = word & kPrefetchHw;
    }
    word = (lnum << kFlagBits) | kValid | (isPrefetch ? kPrefetch : 0);
    touch(set, way);
    return Frame(base + way);
}

} // namespace minnow::mem

#endif // MINNOW_MEM_CACHE_HH
