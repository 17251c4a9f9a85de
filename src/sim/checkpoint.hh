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
 * All integers are little-endian host order (checkpoints are a
 * same-host replay witness, not an interchange format; the
 * magic pins the version so a layout change bumps the digit and old
 * files are rejected, never misread). Version 2 changed the cache
 * array, memory directory and core frontend payloads (DESIGN.md 5m).
 * Version 3 dropped the push/credit coalescing state from the minnow
 * engine sections and added the offload, engine-sharing, work-
 * sharing and hardware-prefetcher knobs to the config fingerprint
 * (DESIGN.md 5h). Version 4 dropped the checkpoint-kind byte from
 * the harness's meta section: every checkpoint is a replay anchor
 * (DESIGN.md 5i).
 *
 * Integrity: the trailing file CRC is verified over the whole
 * buffer BEFORE any length field is trusted, so a corrupted section
 * table can never steer a read out of bounds; per-section CRCs then
 * localize which component's payload changed. CRC32 detects every
 * burst error up to 32 bits, so any single corrupted byte is
 * guaranteed to be caught. Truncation is caught by explicit bounds
 * checks. Every failure is reported as an error string (the caller
 * warns and degrades to cold start — never a crash, never a silent
 * misload).
 *
 * Section payloads are produced by per-component
 * `checkpoint(ckpt::Ckpt &)` visitors (base/ckpt.hh). What is and
 * is not serialized — and why a restore is nevertheless
 * byte-identical — is documented in DESIGN.md section 5i.
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

/** Opens and fully validates a checkpoint file. */
class Reader
{
  public:
    /**
     * Read @p path, verify magic/version, file CRC, section bounds
     * and per-section CRCs. @return "" on success, else a specific
     * diagnostic naming what failed. After a failure the reader
     * holds no sections.
     */
    std::string openFile(const std::string &path);

    /** Validate an in-memory image (testing, and openFile's core). */
    std::string decode(const std::vector<std::uint8_t> &buf);

    /** Section by name; nullptr when absent. */
    const Section *find(const std::string &name) const;

    const std::vector<Section> &sections() const
    {
        return sections_;
    }

  private:
    std::vector<Section> sections_;
};

/** Serialize one component into a byte buffer via its visitor. */
template <typename T>
std::vector<std::uint8_t>
serialize(T &component)
{
    std::vector<std::uint8_t> buf;
    Ckpt ck = Ckpt::saver(&buf);
    component.checkpoint(ck);
    return buf;
}

} // namespace minnow::ckpt

#endif // MINNOW_SIM_CHECKPOINT_HH
