/**
 * @file
 * CacheHierarchy implementation.
 */

#include "sim/hierarchy.hpp"

#include <stdexcept>

namespace lruleak::sim {

bool
sameTopology(HierarchyConfig a, const HierarchyConfig &b)
{
    a.l1.seed = b.l1.seed;
    a.l2.seed = b.l2.seed;
    a.llc.seed = b.llc.seed;
    return a == b;
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config),
      l1_(std::make_unique<Cache>(config.l1, config.l1_pl_mode,
                                  config.l1_way_predictor)),
      l2_(std::make_unique<Cache>(config.l2)),
      llc_(std::make_unique<Cache>(config.llc))
{
    if (config.enable_prefetcher)
        prefetcher_ = std::make_unique<StridePrefetcher>(
            config.l1.line_size, 2);
}

void
CacheHierarchy::landWriteback(int from, Addr line_base)
{
    // A write-through level never buffers dirty data, so the write-back
    // passes through it on the way to memory.
    if (from < 1 &&
        config_.l2.write_hit == WriteHitPolicy::WriteBack &&
        l2_->markDirtyLine(line_base))
        return;
    if (from < 2 &&
        config_.llc.write_hit == WriteHitPolicy::WriteBack &&
        llc_->markDirtyLine(line_base))
        return;
    // Reached memory: nothing to track beyond the transaction itself.
}

HierarchyAccessResult
CacheHierarchy::access(const MemRef &ref, LockReq lock_req)
{
    // res.l1 is built in place: no temporary, no copy.
    HierarchyAccessResult res{.l1 = l1_->access(ref, lock_req)};
    res.l1_utag_mismatch = res.l1.utag_mismatch;
    res.l1_bypassed = res.l1.bypassed;

    if (res.l1.dirty_writeback && res.l1.evicted_line) {
        landWriteback(0, *res.l1.evicted_line);
        ++res.writebacks;
    }

    if (res.l1.hit && !res.l1.utag_mismatch) {
        res.level = HitLevel::L1;
    } else if (res.l1.hit && res.l1.utag_mismatch) {
        // Way-predictor miss: data was in L1 but the access pays (about)
        // an L2-hit latency while the utag retrains.  No lower-level
        // access happens architecturally.
        res.level = HitLevel::L2;
    } else {
        // L1 miss: walk down.  Perf counters of lower levels tick only
        // when the level is actually referenced, as with real HW events.
        // A store is "absorbed" by the innermost write-back level that
        // keeps a copy; below that point the walk is a plain read, so
        // one store never dirties two levels.
        MemRef down = ref;
        if (down.is_write &&
            config_.l1.write_hit == WriteHitPolicy::WriteBack &&
            res.l1.filled)
            down.is_write = false;
        const auto l2_res = l2_->access(down);
        if (l2_res.dirty_writeback && l2_res.evicted_line) {
            landWriteback(1, *l2_res.evicted_line);
            ++res.writebacks;
        }
        if (down.is_write &&
            (l2_res.hit || l2_res.filled)) {
            if (config_.l2.write_hit == WriteHitPolicy::WriteBack) {
                down.is_write = false; // L2 buffered the dirty data
            } else {
                // Write-through L2: the store passes through.
                landWriteback(1, l1_->layout().lineBase(ref.paddr));
                ++res.writebacks;
                down.is_write = false;
            }
        }
        if (l2_res.hit) {
            res.level = HitLevel::L2;
        } else {
            const auto llc_res = llc_->access(down);
            res.level = llc_res.hit ? HitLevel::LLC : HitLevel::Memory;
            if (llc_res.dirty_writeback)
                ++res.writebacks; // LLC victims drain straight to memory
            if (down.is_write && (llc_res.hit || llc_res.filled) &&
                config_.llc.write_hit == WriteHitPolicy::WriteThrough)
                ++res.writebacks; // passes through the LLC to memory
        }
    }

    if (res.l1.hit && ref.is_write &&
        config_.l1.write_hit == WriteHitPolicy::WriteThrough) {
        // Write-through L1: the store is forwarded downstream even on a
        // hit; the miss path above already carried it down.
        landWriteback(0, l1_->layout().lineBase(ref.paddr));
        ++res.writebacks;
    }

    if (prefetcher_) {
        const bool l1_hit = res.level == HitLevel::L1;
        for (Addr pf_vaddr : prefetcher_->observe(ref, l1_hit)) {
            // Prefetches translate with the same VA->PA offset as the
            // triggering access.
            MemRef pf{pf_vaddr, pf_vaddr + (ref.paddr - ref.vaddr),
                      ref.thread, false};
            // A dirty victim of either fill lands one level down; it is
            // not a write-back of this demand access.
            if (!l1_->contains(pf)) {
                const auto l2_res = l2_->prefetch(pf);
                if (l2_res.dirty_writeback)
                    landWriteback(1, *l2_res.evicted_line);
                const auto l1_res = l1_->prefetch(pf);
                if (l1_res.dirty_writeback)
                    landWriteback(0, *l1_res.evicted_line);
            }
        }
    }

    return res;
}

void
CacheHierarchy::accessBatch(std::span<const MemRef> refs)
{
    for (const MemRef &ref : refs)
        access(ref);
}

void
CacheHierarchy::accessBatch(std::span<const MemRef> refs,
                            std::span<HitLevel> levels)
{
    for (std::size_t i = 0; i < refs.size(); ++i)
        levels[i] = access(refs[i]).level;
}

std::uint64_t
CacheHierarchy::accessRun(std::span<const MemRef> refs,
                          std::span<HitLevel> levels)
{
    std::uint64_t writebacks = 0;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const auto res = access(refs[i]);
        levels[i] = res.level;
        writebacks += res.writebacks;
    }
    return writebacks;
}

CacheFlushResult
CacheHierarchy::flush(const MemRef &ref)
{
    const auto f1 = l1_->flush(ref);
    const auto f2 = l2_->flush(ref);
    const auto f3 = llc_->flush(ref);
    CacheFlushResult res;
    res.present = f1.present || f2.present || f3.present;
    res.dirty = f1.dirty || f2.dirty || f3.dirty;
    return res;
}

bool
CacheHierarchy::inAnyLevel(const MemRef &ref) const
{
    return l1_->contains(ref) || l2_->contains(ref) || llc_->contains(ref);
}

HitLevel
CacheHierarchy::peekLevel(const MemRef &ref) const
{
    if (l1_->contains(ref))
        return HitLevel::L1;
    if (l2_->contains(ref))
        return HitLevel::L2;
    if (llc_->contains(ref))
        return HitLevel::LLC;
    return HitLevel::Memory;
}

bool
CacheHierarchy::steadyL1Hits(std::span<const MemRef> refs) const
{
    if (prefetcher_)
        return false;
    if (config_.l1.write_hit == WriteHitPolicy::WriteThrough) {
        for (const MemRef &ref : refs) {
            if (ref.is_write)
                return false;
        }
    }
    return l1_->steadyHits(refs);
}

void
CacheHierarchy::reset(const HierarchyConfig &config)
{
    if (!sameTopology(config_, config))
        throw std::invalid_argument(
            "CacheHierarchy::reset: config differs beyond its seeds");
    config_ = config;
    l1_->reset(config.l1.seed);
    l2_->reset(config.l2.seed);
    llc_->reset(config.llc.seed);
    if (prefetcher_)
        prefetcher_->reset();
}

void
CacheHierarchy::resetCounters()
{
    l1_->counters().reset();
    l2_->counters().reset();
    llc_->counters().reset();
}

} // namespace lruleak::sim
