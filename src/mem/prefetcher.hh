/**
 * @file
 * Baseline hardware L2 prefetchers: classic per-PC stride, and IMP
 * (Yu et al., MICRO-48) — the indirect memory prefetcher the paper
 * compares against in Figs. 17 and 20.
 *
 * Both observe the demand load stream of one core at its L2 and emit
 * candidate prefetch line addresses. They are mechanisms from the
 * literature, not oracles: IMP must *learn* the A[B[i]] coefficient
 * from (index value, subsequent address) samples before it can issue,
 * and needs several constant-stride observations to detect a stream.
 * Reading the index array ahead of the demand stream uses a value
 * oracle supplied by the memory system, which stands in for the
 * hardware's ability to inspect returned fill data.
 *
 * Per the paper's re-tuning (Section 6.3.3) tables are sized 4x the
 * original publication and the prefetch distance is 4.
 */

#ifndef MINNOW_MEM_PREFETCHER_HH
#define MINNOW_MEM_PREFETCHER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/types.hh"

namespace minnow::mem
{

/**
 * Reads functional memory at a simulated address, as prefetch
 * hardware does with fill data. Returns false if the address is not
 * backed by a registered array.
 */
using ValueOracle = std::function<bool(Addr addr, std::uint64_t &value)>;

/** One demand-load observation handed to a prefetcher. */
struct LoadObservation
{
    Addr addr = 0;           //!< byte address of the demand load.
    std::uint16_t site = 0;  //!< load-site tag (PC proxy).
    std::uint64_t value = 0; //!< value loaded (for index detection).
    bool hasValue = false;
};

/** Interface for table-based L2 prefetchers. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe one demand load; append prefetch *line* addresses to
     * @p out (deduplication is the caller's problem).
     */
    virtual void observe(const LoadObservation &obs,
                         std::vector<Addr> &out) = 0;
};

/** Classic per-site stride prefetcher with confidence counters. */
class StridePrefetcher : public Prefetcher
{
  public:
    /**
     * @param distance How many strides ahead to prefetch.
     * @param degree   Prefetches issued per triggering access.
     */
    explicit StridePrefetcher(std::uint32_t distance = 4,
                              std::uint32_t degree = 2);

    void observe(const LoadObservation &obs,
                 std::vector<Addr> &out) override;

  private:
    struct Entry
    {
        bool valid = false;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint32_t confidence = 0;
    };

    static constexpr std::uint32_t kEntries = 256;

    Entry &entryFor(std::uint16_t site);

    std::uint32_t distance_;
    std::uint32_t degree_;
    std::vector<Entry> table_;
};

/**
 * IMP: stride-detects an index stream B[i], learns the linear map
 * addr = base + (B[i] << shift) between index values and the
 * addresses of a dependent load A[B[i]], then prefetches
 * A[B[i + distance]] by reading B ahead of the demand stream.
 */
class ImpPrefetcher : public Prefetcher
{
  public:
    explicit ImpPrefetcher(ValueOracle oracle,
                           std::uint32_t distance = 4);

    void observe(const LoadObservation &obs,
                 std::vector<Addr> &out) override;

    /** Learned-pattern count (tests / debugging). */
    std::uint32_t patternsLearned() const { return patterns_; }

  private:
    /** Stride/stream tracking per load site (4x original sizing). */
    struct StreamEntry
    {
        bool valid = false;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint32_t confidence = 0;
        std::uint64_t lastValue = 0;
        bool hasLastValue = false;
    };

    /** Index->indirect correlation state. */
    struct IndirectEntry
    {
        bool valid = false;          //!< pattern confirmed.
        bool training = false;       //!< one sample captured.
        std::uint16_t indexSite = 0; //!< site of the index stream.
        std::uint64_t sampleValue = 0;
        Addr sampleAddr = 0;
        Addr base = 0;
        std::uint32_t shift = 0;
        std::uint32_t confidence = 0;
    };

    static constexpr std::uint32_t kStreams = 64;   // 16 x4 per paper.
    static constexpr std::uint32_t kIndirects = 64;

    StreamEntry &streamFor(std::uint16_t site);
    IndirectEntry &indirectFor(std::uint16_t site);

    ValueOracle oracle_;
    std::uint32_t distance_;
    std::vector<StreamEntry> streams_;
    std::vector<IndirectEntry> indirects_;
    std::uint16_t lastIndexSite_ = 0;
    std::uint64_t lastIndexValue_ = 0;
    bool haveLastIndex_ = false;
    std::uint32_t patterns_ = 0;
};

} // namespace minnow::mem

#endif // MINNOW_MEM_PREFETCHER_HH
