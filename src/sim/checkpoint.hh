/**
 * @file
 * Checkpoint container format "minnow-ckpt-4".
 *
 * A checkpoint is a single binary file:
 *
 *     magic        "minnow-ckpt-4\n"        (14 bytes)
 *     u32          section count
 *     per section:
 *       u32        name length, then name bytes
 *       u64        payload length, then payload bytes
 *       u32        CRC32 of the payload
 *     u32          CRC32 of everything above (file CRC)
 *
 * All integers are little-endian host order (a checkpoint is a
 * same-host witness of one run, not an interchange format).
 * Version 2 changed the cache array, memory directory and core
 * frontend payloads (DESIGN.md 5m). Version 3 dropped the
 * push/credit coalescing state from the minnow engine sections and
 * added the offload, engine-sharing, work sharing and hardware-
 * prefetcher knobs to the config fingerprint (DESIGN.md 5h).
 * Version 4 dropped the checkpoint-kind byte from the harness's meta
 * section. Since nothing reads a file back, the digit now pins only
 * the container: a payload change, such as the speculative task slot
 * leaving the core and engine sections, leaves it at 4, as a witness
 * is only ever compared with one saved by the same build.
 *
 * The format is written, never read back: a witness is checked by
 * saving it twice, in two processes at the same anchor, and
 * comparing the files byte for byte (DESIGN.md section 5i). When two
 * files differ, scripts/check_equivalence.py walks this section
 * table to name the first differing section and the offset in it.
 * Section payloads are produced by per-component
 * `checkpoint(ckpt::Ckpt &) const` visitors (base/ckpt.hh).
 */

#ifndef MINNOW_SIM_CHECKPOINT_HH
#define MINNOW_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/ckpt.hh"

namespace minnow::ckpt
{

/** The format magic; the trailing digit is the version. */
inline constexpr char kMagic[] = "minnow-ckpt-4\n";
inline constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320), seedable for chains. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/** One named, CRC-protected payload. */
struct Section
{
    std::string name;
    std::vector<std::uint8_t> bytes;
    std::uint32_t crc = 0;
};

/** Accumulates sections and writes the checkpoint file. */
class Writer
{
  public:
    /** Append a section; the CRC is computed here. */
    void add(const std::string &name,
             std::vector<std::uint8_t> bytes);

    const std::vector<Section> &sections() const
    {
        return sections_;
    }

    /** Serialize the container to an in-memory buffer. */
    std::vector<std::uint8_t> encode() const;

    /**
     * Write atomically (temp file + rename) so a crash mid-write
     * never leaves a truncated checkpoint under the final name.
     * @return "" on success, else a one-line error description.
     */
    std::string writeFile(const std::string &path) const;

  private:
    std::vector<Section> sections_;
};

/** Serialize one component into a byte buffer via its visitor. */
template <typename T>
std::vector<std::uint8_t>
serialize(const T &component)
{
    std::vector<std::uint8_t> buf;
    Ckpt ck(buf);
    component.checkpoint(ck);
    return buf;
}

} // namespace minnow::ckpt

#endif // MINNOW_SIM_CHECKPOINT_HH
