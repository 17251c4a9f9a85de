#include "worklist/chunked.hh"

#include <algorithm>

#include "base/logging.hh"

namespace minnow::worklist
{

using runtime::CoTask;
using runtime::PhaseGuard;
using runtime::SimContext;

ChunkedWorklist::ChunkedWorklist(runtime::Machine *machine,
                                 Policy policy,
                                 std::uint32_t chunkSize,
                                 std::uint32_t packages)
    : machine_(machine),
      policy_(policy),
      pool_(&machine->alloc, chunkSize),
      packages_(std::min(packages, machine->cfg.numCores)),
      coresPerPkg_((machine->cfg.numCores + packages_ - 1) /
                   packages_),
      pkgs_(packages_),
      workers_(machine->cfg.numCores)
{
    for (std::uint32_t p = 0; p < packages_; ++p) {
        pkgs_[p].headLine =
            machine->alloc.alloc("cwl.pkg" + std::to_string(p), 64);
    }
}

std::uint64_t
ChunkedWorklist::size() const
{
    std::uint64_t n = 0;
    for (const auto &p : pkgs_) {
        for (const Chunk *c : p.list)
            n += c->remaining();
    }
    for (const auto &w : workers_) {
        if (w.pushChunk)
            n += w.pushChunk->remaining();
        if (w.popChunk)
            n += w.popChunk->remaining();
    }
    return n;
}

void
ChunkedWorklist::pushInitial(WorkItem item)
{
    std::uint32_t pkg = seedRotor_++ % packages_;
    auto &list = pkgs_[pkg].list;
    if (list.empty() || list.back()->items.size() >=
                            pool_.chunkSize()) {
        list.push_back(pool_.acquire());
    }
    list.back()->items.push_back(item);
    machine_->monitor.addWork(1, true);
}

CoTask<void>
ChunkedWorklist::publish(SimContext &ctx, std::uint32_t pkg,
                         Chunk *chunk)
{
    // CAS on the shared package list head, then link the chunk.
    Cycle locked = co_await ctx.atomicAccess(pkgs_[pkg].headLine);
    ctx.store(chunk->base, locked);
    ctx.compute(4);
    pkgs_[pkg].list.push_back(chunk);
    ctx.monitor().transferWork(chunk->remaining(), true);
}

CoTask<void>
ChunkedWorklist::push(SimContext &ctx, WorkItem item)
{
    PhaseGuard guard(ctx, cpu::Phase::Worklist);
    // Galois per-op overhead: TLS lookup, iterator/wrapper layers,
    // conflict-detection hooks (the "hundreds of instructions" the
    // paper attributes to software scheduling).
    ctx.compute(48);
    ctx.cheapLoads(10);
    PerWorker &w = workers_[ctx.id()];
    if (!w.pushChunk) {
        w.pushChunk = pool_.acquire();
        ctx.compute(24); // allocator path.
        ctx.store(w.pushChunk->base, 0);
    }
    Chunk *c = w.pushChunk;
    ctx.store(c->itemAddr(std::uint32_t(c->items.size())), 0);
    c->items.push_back(item);
    ctx.monitor().addWork(1, false);
    if (c->items.size() >= pool_.chunkSize()) {
        w.pushChunk = nullptr;
        co_await publish(ctx, pkgOf(ctx.id()), c);
    }
    co_await ctx.sync();
}

void
ChunkedWorklist::deliver(SimContext &ctx, PerWorker &w, WorkItem &out)
{
    Chunk *c = w.popChunk;
    if (policy_ == Policy::Lifo) {
        std::uint32_t idx = std::uint32_t(c->items.size()) - 1;
        ctx.load(c->itemAddr(idx), 0, {kSiteWlItem, 0, false, false});
        out = c->items.back();
        c->items.pop_back();
    } else {
        ctx.load(c->itemAddr(c->head), 0,
                 {kSiteWlItem, 0, false, false});
        out = c->items[c->head];
        c->head += 1;
    }
    ctx.monitor().takeWork(1, false);
    if (c->empty()) {
        pool_.release(c);
        w.popChunk = nullptr;
        ctx.compute(4);
    }
}

CoTask<bool>
ChunkedWorklist::pop(SimContext &ctx, WorkItem &out)
{
    PhaseGuard guard(ctx, cpu::Phase::Worklist);
    ctx.compute(40);
    ctx.cheapLoads(10);
    // LINT-OK(coro-suspend-safety): workers_ is fixed-size after ctor
    PerWorker &w = workers_[ctx.id()];

    for (;;) {
        if (w.popChunk && !w.popChunk->empty()) {
            deliver(ctx, w, out);
            co_await ctx.sync();
            co_return true;
        }
        if (w.popChunk) {
            pool_.release(w.popChunk);
            w.popChunk = nullptr;
        }
        if (w.pushChunk && !w.pushChunk->empty()) {
            // Drain our own unpublished chunk first: these items are
            // already accounted non-stealable.
            w.popChunk = w.pushChunk;
            w.pushChunk = nullptr;
            ctx.compute(4);
            continue;
        }

        // Acquire a chunk: own package first, then steal.
        const std::uint32_t myPkg = pkgOf(ctx.id());
        Chunk *got = nullptr;
        for (std::uint32_t i = 0; i < packages_; ++i) {
            std::uint32_t pkg = (myPkg + i) % packages_;
            // Peek at the (shared, frequently invalidated) head.
            ctx.load(pkgs_[pkg].headLine, 0,
                     {kSiteWlHead, 0, false, false});
            ctx.compute(3);
            if (pkgs_[pkg].list.empty())
                continue;
            co_await ctx.atomicAccess(pkgs_[pkg].headLine);
            if (pkgs_[pkg].list.empty())
                continue; // lost the race while acquiring.
            if (policy_ == Policy::Lifo) {
                got = pkgs_[pkg].list.back();
                pkgs_[pkg].list.pop_back();
            } else {
                got = pkgs_[pkg].list.front();
                pkgs_[pkg].list.pop_front();
            }
            ctx.load(got->base, 0, {kSiteWlChunkHdr, 0, false, false});
            ctx.monitor().transferWork(got->remaining(), false);
            break;
        }
        if (!got) {
            co_await ctx.sync();
            co_return false;
        }
        w.popChunk = got;
    }
}

void
ChunkedWorklist::checkpoint(ckpt::Ckpt &ck) const
{
    Worklist::checkpoint(ck);
    ck.io(std::uint8_t(policy_ == Policy::Lifo));
    ck.io(packages_);
    ck.io(coresPerPkg_);
    pool_.checkpoint(ck);
    ck.io(seedRotor_);
    ck.io(std::uint64_t(pkgs_.size()));
    for (const PerPackage &p : pkgs_) {
        ck.io(p.headLine);
        ck.io(std::uint64_t(p.list.size()));
        for (const Chunk *c : p.list)
            c->checkpoint(ck);
    }
    ck.io(std::uint64_t(workers_.size()));
    for (const PerWorker &w : workers_) {
        checkpointChunkPtr(ck, w.pushChunk);
        checkpointChunkPtr(ck, w.popChunk);
    }
    ck.transient("machine_");
}

} // namespace minnow::worklist
