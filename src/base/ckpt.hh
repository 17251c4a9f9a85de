/**
 * @file
 * Save-only serialization visitor for checkpoint witnesses, and the
 * decoder for the two sections a restore reads back.
 *
 * Components expose one `checkpoint(ckpt::Ckpt &ck) const` method;
 * `ck.io(member_)` appends the member's bytes. Saves go one way: the
 * simulator's hot state lives in coroutine frames, which cannot be
 * serialized, so a restore never loads a component. It rebuilds the
 * machine cold, replays to the saved {cycle, executed} anchor and
 * re-serializes every section to compare its bytes with the file
 * (DESIGN.md section 5i). A save is a witness of the run it is taken
 * in, so checkpoint() is const: the compiler proves that saving
 * cannot change the run. Members that are deliberately NOT
 * serialized (host pointers, caches of derived state, coroutine
 * frames) must be declared with `ck.transient("a_ b_ c_")` — a
 * runtime no-op that exists so the minnow-lint S1 rule
 * (serializer-coverage) can prove every data member of a
 * checkpointed class is either serialized or intentionally skipped.
 *
 * The visitor itself knows nothing about files or sections; the
 * container format (magic, section table, CRCs) lives in
 * sim/checkpoint.hh. This split keeps base/ components (Rng,
 * SimAlloc, StatsRegistry) free of sim/ includes.
 *
 * Only the config fingerprint and the harness's meta section are
 * read back, through Decoder. Their bytes come from a file, so the
 * decoder never throws or crashes on them: the first underrun or
 * oversized length latches into error() and every later read yields
 * zero, so callers check ok() once at the end.
 */

#ifndef MINNOW_BASE_CKPT_HH
#define MINNOW_BASE_CKPT_HH

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
#include <vector>

namespace minnow::ckpt
{

/** Serialization visitor: every io() appends to one byte buffer. */
class Ckpt
{
  public:
    explicit Ckpt(std::vector<std::uint8_t> &out) : out_(&out) {}

    /**
     * Padding guard: a type whose object representation includes
     * padding bits would serialize uninitialized bytes and break
     * byte-identical witness comparison across processes. Floating
     * point types are pad-free but report non-unique
     * representations (NaN payloads), so they are admitted
     * explicitly. Types that fail this must serialize per member
     * (or via their own checkpoint() method).
     */
    template <typename T>
    static constexpr bool kPadFree =
        std::has_unique_object_representations_v<T> ||
        std::is_floating_point_v<T>;

    /**
     * Per-element visitor detection. It finds a non-const
     * checkpoint() too, which io() then fails to call on its const
     * argument: a visitor that could change its object is a
     * compile error, not a silent fall-back to the byte copy.
     */
    template <typename T>
    static constexpr bool kHasCheckpoint =
        requires(T &t, Ckpt &ck) { t.checkpoint(ck); };

    /** Scalars, enums and pad-free trivially-copyable PODs. */
    template <typename T>
        requires(std::is_trivially_copyable_v<T> &&
                 !kHasCheckpoint<T>)
    void
    io(const T &v)
    {
        static_assert(kPadFree<T>,
                      "type has padding bytes; serialize it per"
                      " member");
        bytes(&v, sizeof v);
    }

    /** Structs with their own checkpoint() visitor nest directly. */
    template <typename T>
        requires kHasCheckpoint<T>
    void
    io(const T &v)
    {
        v.checkpoint(*this);
    }

    /** A u64 length, then the characters. */
    void
    io(const std::string &s)
    {
        io(std::uint64_t(s.size()));
        bytes(s.data(), s.size());
    }

    /** Contiguous trivially-copyable vectors go as one byte blob. */
    template <typename T>
        requires(std::is_trivially_copyable_v<T> &&
                 !kHasCheckpoint<T>)
    void
    io(const std::vector<T> &v)
    {
        static_assert(kPadFree<T>,
                      "element type has padding bytes; give it a"
                      " checkpoint() method");
        io(std::uint64_t(v.size()));
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    /**
     * Vectors of element types with their own checkpoint() visitor
     * (used for structs whose layout includes padding: the visitor
     * writes each member, so no uninitialized bytes leak into the
     * stream) go as a u64 count, then element by element.
     */
    template <typename T>
        requires kHasCheckpoint<T>
    void
    io(const std::vector<T> &v)
    {
        each(v);
    }

    template <typename T>
    void
    io(const std::deque<T> &d)
    {
        each(d);
    }

    /**
     * Declare members intentionally not serialized. Accepts several
     * space-separated member names per call; the S1 lint rule
     * treats each word as covered. Runtime no-op.
     */
    void transient(const char *) const {}

  private:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        out_->insert(out_->end(), b, b + n);
    }

    template <typename Seq>
    void
    each(const Seq &s)
    {
        io(std::uint64_t(s.size()));
        for (const auto &e : s)
            io(e);
    }

    std::vector<std::uint8_t> *out_;
};

/**
 * Reads back the integers, doubles and strings that Ckpt::io wrote,
 * from a payload that came from a file. It does not copy the
 * payload, which must outlive it.
 */
class Decoder
{
  public:
    Decoder(const std::uint8_t *data, std::size_t len)
        : in_(data), len_(len)
    {
    }

    bool ok() const { return err_.empty(); }
    const std::string &error() const { return err_; }

    /** An integer or a double; zero once the payload has failed. */
    template <typename T>
        requires std::is_arithmetic_v<T>
    void
    read(T &v)
    {
        if (!ok() || sizeof v > len_ - pos_) {
            fail("checkpoint payload underrun (need " +
                 std::to_string(sizeof v) + " bytes at offset " +
                 std::to_string(pos_) + " of " +
                 std::to_string(len_) + ")");
            v = T{};
            return;
        }
        std::memcpy(&v, in_ + pos_, sizeof v);
        pos_ += sizeof v;
    }

    /** A u64 length, then the characters; empty on failure. */
    void
    read(std::string &s)
    {
        std::uint64_t n = 0;
        read(n);
        if (!ok() || n > len_ - pos_) {
            fail("checkpoint string length " + std::to_string(n) +
                 " overruns payload");
            s.clear();
            return;
        }
        s.assign(reinterpret_cast<const char *>(in_ + pos_),
                 std::size_t(n));
        pos_ += std::size_t(n);
    }

  private:
    /** Latch the first error; later reads yield zero. */
    void
    fail(const std::string &why)
    {
        if (err_.empty())
            err_ = why;
    }

    const std::uint8_t *in_;
    std::size_t len_;
    std::size_t pos_ = 0;
    std::string err_;
};

} // namespace minnow::ckpt

#endif // MINNOW_BASE_CKPT_HH
