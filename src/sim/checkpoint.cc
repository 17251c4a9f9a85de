#include "sim/checkpoint.hh"

#include <array>
#include <cstdio>

namespace minnow::ckpt
{

namespace
{

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

} // anonymous namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed)
{
    static const std::array<std::uint32_t, 256> table =
        makeCrcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
Writer::add(const std::string &name,
            std::vector<std::uint8_t> bytes)
{
    Section s;
    s.name = name;
    s.crc = crc32(bytes.data(), bytes.size());
    s.bytes = std::move(bytes);
    sections_.push_back(std::move(s));
}

std::vector<std::uint8_t>
Writer::encode() const
{
    // Built from the magic, not inserted into an empty vector, which
    // GCC 12 flags as -Wstringop-overflow.
    std::vector<std::uint8_t> out(kMagic, kMagic + kMagicLen);
    putU32(out, std::uint32_t(sections_.size()));
    for (const Section &s : sections_) {
        putU32(out, std::uint32_t(s.name.size()));
        out.insert(out.end(), s.name.begin(), s.name.end());
        putU64(out, s.bytes.size());
        out.insert(out.end(), s.bytes.begin(), s.bytes.end());
        putU32(out, s.crc);
    }
    putU32(out, crc32(out.data(), out.size()));
    return out;
}

std::string
Writer::writeFile(const std::string &path) const
{
    std::vector<std::uint8_t> buf = encode();
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return "cannot open " + tmp + " for writing";
    std::size_t n = buf.empty()
        ? 0
        : std::fwrite(buf.data(), 1, buf.size(), f);
    bool writeOk = n == buf.size();
    bool closeOk = std::fclose(f) == 0;
    if (!writeOk || !closeOk) {
        std::remove(tmp.c_str());
        return "short write to " + tmp;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return "cannot rename " + tmp + " to " + path;
    }
    return "";
}

} // namespace minnow::ckpt
