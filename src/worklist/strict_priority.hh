/**
 * @file
 * Strict priority worklist: one global lock-protected binary heap.
 *
 * This is the "priority queues are not good concurrent priority
 * schedulers" baseline (Lenharth et al., cited in Section 2.1): it
 * delivers Dijkstra-quality ordering, but every operation serializes
 * on a single lock line and walks log(n) heap levels, so it collapses
 * at scale. Used by the Fig. 3 scheduler zoo.
 */

#ifndef MINNOW_WORKLIST_STRICT_PRIORITY_HH
#define MINNOW_WORKLIST_STRICT_PRIORITY_HH

#include <vector>

#include "runtime/machine.hh"
#include "worklist/worklist.hh"

namespace minnow::worklist
{

/** Centralized lock-protected binary min-heap worklist. */
class StrictPriorityWorklist : public Worklist
{
  public:
    explicit StrictPriorityWorklist(runtime::Machine *machine);

    runtime::CoTask<void> push(runtime::SimContext &ctx,
                               WorkItem item) override;
    runtime::CoTask<bool> pop(runtime::SimContext &ctx,
                              WorkItem &out) override;
    void pushInitial(WorkItem item) override;
    std::uint64_t size() const override { return heap_.size(); }
    std::string name() const override { return "strict"; }

    void
    checkpoint(ckpt::Ckpt &ck) const override
    {
        ck.io(heap_);
        ck.io(lockLine_);
        ck.io(heapBase_);
        ck.io(heapCapacity_);
        ck.transient("machine_");
    }

  private:
    /** Sift the last element up; returns levels touched. */
    std::uint32_t siftUp();

    /** Pop the min element into @p out; returns levels touched. */
    std::uint32_t popMin(WorkItem &out);

    /** Simulated address of heap slot @p i. */
    Addr slotAddr(std::size_t i) const
    {
        return heapBase_ + Addr(i) * kItemBytes;
    }

    runtime::Machine *machine_;
    std::vector<WorkItem> heap_;
    Addr lockLine_ = 0;
    Addr heapBase_ = 0;
    std::uint64_t heapCapacity_;
};

} // namespace minnow::worklist

#endif // MINNOW_WORKLIST_STRICT_PRIORITY_HH
