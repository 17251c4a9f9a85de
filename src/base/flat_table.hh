/**
 * @file
 * Open-addressed hash map for hot-path simulator state.
 *
 * Linear probing, backward-shift erase, power-of-two capacity, grown
 * at 3/4 load. A slot is just {key, value}: empty slots hold a
 * sentinel key (all ones) that real keys never take — line numbers
 * are at most 58 bits, and lineage ids count up from 1. The memory
 * directory and atomic serialization points (one entry per on-chip
 * line) and the attribution trackers (an insert and an erase per
 * prefetch fill and per pushed task) all live here; node-based maps
 * paid an allocation per insert and a hash-mod divide plus a chain
 * walk per lookup.
 *
 * Determinism: the layout depends only on the insert/erase sequence
 * (keys, never pointers, are hashed), nothing result-bearing
 * iterates the table, and checkpoint() writes entries sorted by key
 * so the bytes are canonical whatever the layout.
 */

#ifndef MINNOW_BASE_FLAT_TABLE_HH
#define MINNOW_BASE_FLAT_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/ckpt.hh"
#include "base/logging.hh"

namespace minnow
{

namespace flat_detail
{

/** splitmix64 finalizer: the tables' 64->64 bit mixer. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

constexpr std::uint64_t
hashKey(std::uint64_t k)
{
    return mix64(k);
}

constexpr std::uint64_t
hashKey(const std::pair<std::uint32_t, std::uint64_t> &k)
{
    return mix64(k.second * 0x9e3779b97f4a7c15ULL + k.first);
}

constexpr std::uint64_t
emptyKey(std::uint64_t)
{
    return ~std::uint64_t(0);
}

constexpr std::pair<std::uint32_t, std::uint64_t>
emptyKey(const std::pair<std::uint32_t, std::uint64_t> &)
{
    return {~std::uint32_t(0), ~std::uint64_t(0)};
}

/** Keys serialize per member: a pair carries padding bytes. */
inline void
ioKey(ckpt::Ckpt &ck, std::uint64_t k)
{
    ck.io(k);
}

inline void
ioKey(ckpt::Ckpt &ck, const std::pair<std::uint32_t, std::uint64_t> &k)
{
    ck.io(k.first);
    ck.io(k.second);
}

} // namespace flat_detail

template <typename K, typename V>
class FlatTable
{
  public:
    static constexpr K kEmpty = flat_detail::emptyKey(K{});

    std::size_t size() const { return count_; }

    /** The value for @p k, or nullptr. Stable until the next put/erase. */
    V *
    find(const K &k)
    {
        if (count_ == 0)
            return nullptr;
        std::size_t i = home(k);
        while (!(slots_[i].key == kEmpty)) {
            if (slots_[i].key == k)
                return &slots_[i].val;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    /**
     * The value for @p k, default-constructed and inserted if absent
     * (std::unordered_map::try_emplace). Stable until the next
     * put/erase.
     */
    V &
    findOrInsert(const K &k)
    {
        panic_if(k == kEmpty, "FlatTable key collides with the"
                              " empty-slot sentinel");
        if ((count_ + 1) * 4 > slots_.size() * 3)
            grow();
        std::size_t i = home(k);
        while (!(slots_[i].key == kEmpty)) {
            if (slots_[i].key == k)
                return slots_[i].val;
            i = (i + 1) & mask_;
        }
        slots_[i].key = k;
        slots_[i].val = V{};
        ++count_;
        return slots_[i].val;
    }

    /** Insert or overwrite. */
    void put(const K &k, const V &v) { findOrInsert(k) = v; }

    bool
    erase(const K &k)
    {
        if (count_ == 0)
            return false;
        std::size_t i = home(k);
        while (!(slots_[i].key == kEmpty) && !(slots_[i].key == k))
            i = (i + 1) & mask_;
        if (slots_[i].key == kEmpty)
            return false;
        // Backward-shift deletion: pull displaced entries into the
        // hole so probe chains stay intact without tombstones.
        std::size_t j = i;
        for (;;) {
            j = (j + 1) & mask_;
            if (slots_[j].key == kEmpty)
                break;
            std::size_t h = home(slots_[j].key);
            // An entry whose home slot lies cyclically in (i, j]
            // must stay put; anything else fills the hole.
            bool anchored =
                i <= j ? (i < h && h <= j) : (i < h || h <= j);
            if (!anchored) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i] = Slot{};
        --count_;
        return true;
    }

    /** Drop every entry (the next insert re-creates the slots). */
    void
    clear()
    {
        slots_.clear();
        mask_ = 0;
        count_ = 0;
    }

    /** Visit every live entry (layout order — sort before use). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (!(s.key == kEmpty))
                fn(s.key, s.val);
    }

    /** Slot count (tests: growth and wrap-around). */
    std::size_t capacity() const { return slots_.size(); }

    /** Home slot of @p k at the current capacity (tests). */
    std::size_t
    home(const K &k) const
    {
        return flat_detail::hashKey(k) & mask_;
    }

    /**
     * Serialize as a count then (key, value) pairs sorted by key;
     * values go through ck.io (their own checkpoint() if they have
     * padding). The order is the keys', not the slots', so two
     * tables holding the same entries save the same bytes whatever
     * their insertion history.
     */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        // The entries are the state; the slot layout is not.
        ck.transient("slots_ mask_ count_");
        std::vector<std::pair<K, V>> entries;
        entries.reserve(count_);
        forEach([&](const K &k, const V &v) { entries.emplace_back(k, v); });
        std::sort(entries.begin(), entries.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        ck.io(std::uint64_t(count_));
        for (const auto &[k, v] : entries) {
            flat_detail::ioKey(ck, k);
            ck.io(v);
        }
    }

  private:
    struct Slot
    {
        K key = kEmpty;
        V val{};
    };

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
        mask_ = slots_.size() - 1;
        count_ = 0;
        for (Slot &s : old)
            if (!(s.key == kEmpty))
                findOrInsert(s.key) = s.val;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t count_ = 0;
};

} // namespace minnow

#endif // MINNOW_BASE_FLAT_TABLE_HH
