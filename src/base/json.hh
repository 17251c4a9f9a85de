/**
 * @file
 * The one JSON writer behind every machine-readable output (stats,
 * timeline, watchdog diagnostics), so all of them share a single
 * string and number grammar and diff byte-exactly across runs, and
 * the chunk every large document streams through (ChunkSink).
 *
 * Numbers follow the historical printf grammar exactly:
 *  - non-finite values print as 0 (JSON has no NaN/inf);
 *  - integral values with |v| < 9e15 print as "%.0f" would (no
 *    exponent, "-0" for negative zero) so counters diff exactly;
 *  - everything else prints as "%.12g" would.
 * std::to_chars produces the same text without printf's format
 * parsing or locale lookups; tests/stats_test.cc keeps the printf
 * formatter as a reference and compares the two.
 */

#ifndef MINNOW_BASE_JSON_HH
#define MINNOW_BASE_JSON_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace minnow::json
{

/** Append @p v in decimal. */
inline void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

/** Append @p v in the stats/timeline number grammar (see file doc). */
inline void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += '0';
        return;
    }
    char buf[40];
    char *end;
    if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
        // Exact in int64; printf("%.0f") keeps the sign of -0.
        if (v == 0 && std::signbit(v)) {
            out += "-0";
            return;
        }
        end = std::to_chars(buf, buf + sizeof buf,
                            static_cast<std::int64_t>(v))
                  .ptr;
    } else {
        end = std::to_chars(buf, buf + sizeof buf, v,
                            std::chars_format::general, 12)
                  .ptr;
    }
    out.append(buf, end);
}

/** Append @p s with JSON string escaping (no surrounding quotes). */
inline void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t run = 0; // start of the pending unescaped run.
    for (std::size_t i = 0; i < s.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: {
            const char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 0xf]};
            out.append(esc, sizeof esc);
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

/** Append "\"<escaped key>\":". */
inline void
appendKey(std::string &out, std::string_view key)
{
    out += '"';
    appendEscaped(out, key);
    out += "\":";
}

/**
 * Where a streamed JSON document goes. With a FILE the writer
 * formats into `buf`, a chunk of about kChunk bytes, and calls
 * poll() between items; each time the chunk fills it is written
 * out, so the document is never whole in memory. Without a FILE the
 * whole document accumulates in `buf` (the toJson() forms).
 */
class ChunkSink
{
  public:
    static constexpr std::size_t kChunk = std::size_t(1) << 20;

    explicit ChunkSink(std::FILE *f) : f_(f)
    {
        if (f_)
            buf.reserve(kChunk + 4096);
    }

    /** Write the chunk out once it is full (file sinks only). */
    void
    poll()
    {
        if (f_ && buf.size() >= kChunk)
            flush();
    }

    /** Write out what is buffered; false once any write failed. */
    bool
    flush()
    {
        if (f_ && !buf.empty()) {
            ok_ = std::fwrite(buf.data(), 1, buf.size(), f_) ==
                      buf.size() &&
                  ok_;
            buf.clear();
        }
        return ok_;
    }

    std::string buf;

  private:
    std::FILE *f_;
    bool ok_ = true;
};

/**
 * Create @p path and stream a document into it: @p write formats it
 * into a file ChunkSink. False if the file cannot be created or any
 * write fails.
 */
template <class Write>
bool
writeFile(const std::string &path, Write &&write)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    ChunkSink sink(f);
    write(sink);
    bool ok = sink.flush();
    return std::fclose(f) == 0 && ok;
}

} // namespace minnow::json

#endif // MINNOW_BASE_JSON_HH
