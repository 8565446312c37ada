/**
 * @file
 * MultiCoreHierarchy implementation.
 */

#include "sim/multicore_hierarchy.hpp"

#include <sstream>

namespace lruleak::sim {

namespace {

/** Derive a per-core cache seed so Random-policy sets never run in
 *  lockstep across cores. */
std::uint64_t
coreSeed(std::uint64_t base, std::uint32_t core, std::uint32_t level)
{
    return base + 0x9e3779b97f4a7c15ULL * (core * 4ULL + level + 1);
}

/** The shared LLC's seed. */
std::uint64_t
llcSeed(std::uint64_t base)
{
    return base + 0x51ed2700'51ed2700ULL;
}

} // namespace

bool
sameTopology(MultiCoreConfig a, const MultiCoreConfig &b)
{
    a.seed = b.seed;
    return a == b;
}

MultiCoreHierarchy::MultiCoreHierarchy(const MultiCoreConfig &config)
    : config_(config)
{
    if (config.cores == 0)
        throw std::invalid_argument(
            "MultiCoreHierarchy needs at least one core");
    l1_.reserve(config.cores);
    l2_.reserve(config.cores);
    for (std::uint32_t c = 0; c < config.cores; ++c) {
        CacheConfig l1 = config.l1;
        l1.seed = coreSeed(config.seed, c, 0);
        CacheConfig l2 = config.l2;
        l2.seed = coreSeed(config.seed, c, 1);
        l1_.push_back(std::make_unique<Cache>(l1));
        l2_.push_back(std::make_unique<Cache>(l2));
    }
    CacheConfig llc = config.llc;
    llc.seed = llcSeed(config.seed);
    if (llc.secure == SecureMode::Sharp) {
        // SHARP protection domains on a shared LLC are the cores.
        llc.secure_domains = config.cores;
    }
    llc_ = std::make_unique<Cache>(llc);
    plain_l1_ = l1_[0]->plain();
}

void
MultiCoreHierarchy::landPrivateWriteback(std::uint32_t core, int level,
                                         Addr line_base)
{
    if (level < 1 &&
        config_.l2.write_hit == WriteHitPolicy::WriteBack &&
        l2_[core]->markDirtyLine(line_base))
        return;
    // Inclusion guarantees the LLC still holds the line while any
    // private copy exists, so a private dirty victim normally lands
    // here; memory is the fallback for write-through LLC configs.
    if (config_.llc.write_hit == WriteHitPolicy::WriteBack &&
        llc_->markDirtyLine(line_base))
        return;
    ++dirty_writebacks_;
}

inline MultiCoreAccessResult
MultiCoreHierarchy::l1Hit(std::uint32_t core, const MemRef &ref)
{
    // Inclusion invariant: a private hit implies LLC presence, so the
    // shared level is not referenced at all (no LRU update — the
    // paper's cross-core receiver depends on private hits being
    // invisible to the LLC state).
    std::uint32_t writebacks = 0;
    if (ref.is_write &&
        config_.l1.write_hit == WriteHitPolicy::WriteThrough) {
        // Write-through L1: the store is forwarded downstream.
        landPrivateWriteback(core, 0,
                             l1_[core]->layout().lineBase(ref.paddr));
        writebacks = 1;
    }
    return MultiCoreAccessResult{HitLevel::L1, false, 0, writebacks};
}

MultiCoreAccessResult
MultiCoreHierarchy::access(std::uint32_t core, const MemRef &ref)
{
    // L1 exit: on a plain L1 one probe serves a hit.
    if (plain_l1_ && l1_[core]->hitPlain(ref) != kNoWay)
        return l1Hit(core, ref);
    return walk(core, ref);
}

MultiCoreAccessResult
MultiCoreHierarchy::walk(std::uint32_t core, const MemRef &ref)
{
    // A plain L1 has just missed in access(): fill it without probing
    // the set again.
    Cache &l1 = *l1_[core];
    CacheAccessResult l1_res;
    if (plain_l1_)
        l1.accessMiss(ref, l1_res);
    else
        l1_res = l1.access(ref);
    if (l1_res.hit)
        return l1Hit(core, ref);

    std::uint32_t writebacks = 0;
    if (l1_res.dirty_writeback && l1_res.evicted_line) {
        landPrivateWriteback(core, 0, *l1_res.evicted_line);
        ++writebacks;
    }
    if (l1_res.evicted_line && sharpLlc() &&
        !l2_[core]->contains(MemRef::load(*l1_res.evicted_line))) {
        // The core's last private copy of the victim is gone: its SHARP
        // ownership of the LLC line lapses.
        llc_->releaseOwner(core, *l1_res.evicted_line);
    }

    // A store is absorbed by the innermost write-back level that keeps
    // a copy; below that point the walk is a plain read.
    MemRef down = ref;
    if (down.is_write &&
        config_.l1.write_hit == WriteHitPolicy::WriteBack && l1_res.filled)
        down.is_write = false;

    const auto l2_res = l2_[core]->access(down);
    if (l2_res.dirty_writeback && l2_res.evicted_line) {
        landPrivateWriteback(core, 1, *l2_res.evicted_line);
        ++writebacks;
    }
    if (l2_res.evicted_line && sharpLlc() &&
        !l1.contains(MemRef::load(*l2_res.evicted_line)))
        llc_->releaseOwner(core, *l2_res.evicted_line);
    if (down.is_write && (l2_res.hit || l2_res.filled)) {
        if (config_.l2.write_hit == WriteHitPolicy::WriteThrough) {
            landPrivateWriteback(core, 1,
                                 l2_[core]->layout().lineBase(ref.paddr));
            ++writebacks;
        }
        down.is_write = false;
    }
    if (l2_res.hit)
        return MultiCoreAccessResult{HitLevel::L2, false, 0, writebacks};

    // Private miss: the shared LLC is referenced (hit updates its
    // replacement state; miss installs the line).  The private fills
    // already happened above; inclusion is restored by the LLC fill on
    // the same access, and any LLC victim is back-invalidated out of
    // every core before the access completes — writing its dirty data
    // back first if any copy (LLC or private) was modified.
    const auto llc_res = llc_->accessFrom(core, down);
    const HitLevel level = llc_res.hit ? HitLevel::LLC : HitLevel::Memory;
    if (llc_res.bypassed && sharpLlc()) {
        // SHARP denied the fill: the access is served uncached, so the
        // private copies installed above must go too (inclusion).  A
        // store absorbed into one of them drains to memory first.
        const Addr line = llc_->layout().lineBase(down.paddr);
        const auto f1 = l1.invalidateLine(line);
        const auto f2 = l2_[core]->invalidateLine(line);
        if (f1.dirty || f2.dirty) {
            ++dirty_writebacks_;
            ++writebacks;
        }
        return MultiCoreAccessResult{level, llc_res.filled, 0, writebacks};
    }
    if (down.is_write && (llc_res.hit || llc_res.filled) &&
        config_.llc.write_hit == WriteHitPolicy::WriteThrough) {
        ++dirty_writebacks_; // passes through the LLC to memory
        ++writebacks;
    }
    std::uint32_t back_invalidated = 0;
    if (llc_res.evicted_line) {
        const std::uint64_t before = back_invalidations_;
        const bool private_dirty = backInvalidate(*llc_res.evicted_line);
        back_invalidated =
            static_cast<std::uint32_t>(back_invalidations_ - before);
        if (llc_res.dirty_writeback || private_dirty) {
            // Exactly one memory write-back per evicted line, no matter
            // how many dirty copies existed.
            ++dirty_writebacks_;
            ++writebacks;
        }
    }
    return MultiCoreAccessResult{level, llc_res.filled, back_invalidated,
                                 writebacks};
}

void
MultiCoreHierarchy::accessBatch(std::uint32_t core,
                                std::span<const MemRef> refs,
                                std::span<HitLevel> levels)
{
    for (std::size_t i = 0; i < refs.size(); ++i)
        levels[i] = access(core, refs[i]).level;
}

void
MultiCoreHierarchy::accessBatch(std::uint32_t core,
                                std::span<const MemRef> refs)
{
    for (const MemRef &ref : refs)
        access(core, ref);
}

std::uint64_t
MultiCoreHierarchy::accessRun(std::uint32_t core, std::span<const MemRef> refs,
                              std::span<HitLevel> levels)
{
    std::uint64_t writebacks = 0;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const auto res = access(core, refs[i]);
        levels[i] = res.level;
        writebacks += res.writebacks;
    }
    return writebacks;
}

bool
MultiCoreHierarchy::backInvalidate(Addr line_base)
{
    bool any_dirty = false;
    for (std::uint32_t c = 0; c < cores(); ++c) {
        const auto f1 = l1_[c]->invalidateLine(line_base);
        if (f1.present)
            ++back_invalidations_;
        const auto f2 = l2_[c]->invalidateLine(line_base);
        if (f2.present)
            ++back_invalidations_;
        any_dirty = any_dirty || f1.dirty || f2.dirty;
    }
    return any_dirty;
}

CacheFlushResult
MultiCoreHierarchy::flush(const MemRef &ref)
{
    CacheFlushResult res;
    for (std::uint32_t c = 0; c < cores(); ++c) {
        const auto f1 = l1_[c]->flush(ref);
        const auto f2 = l2_[c]->flush(ref);
        res.present = res.present || f1.present || f2.present;
        res.dirty = res.dirty || f1.dirty || f2.dirty;
    }
    const auto fl = llc_->flush(ref);
    res.present = res.present || fl.present;
    res.dirty = res.dirty || fl.dirty;
    if (res.dirty)
        ++dirty_writebacks_;
    return res;
}

HitLevel
MultiCoreHierarchy::peekLevel(std::uint32_t core, const MemRef &ref) const
{
    if (l1_[core]->contains(ref))
        return HitLevel::L1;
    if (l2_[core]->contains(ref))
        return HitLevel::L2;
    if (llc_->contains(ref))
        return HitLevel::LLC;
    return HitLevel::Memory;
}

std::optional<std::string>
MultiCoreHierarchy::auditInclusion() const
{
    for (std::uint32_t c = 0; c < cores(); ++c) {
        const Cache *levels[2] = {l1_[c].get(), l2_[c].get()};
        for (int lvl = 0; lvl < 2; ++lvl) {
            const Cache &cache = *levels[lvl];
            // Iterate storage sets (one per DAWG partition when the
            // level is partitioned) and compose line bases with the
            // owning *address* set.
            for (std::uint32_t s = 0; s < cache.storageSets(); ++s) {
                const ConstSetView set = cache.cacheSet(s);
                const std::uint32_t addr_set = cache.addressSetOf(s);
                const std::uint32_t valid = set.validMask();
                const std::uint32_t dirty = set.dirtyMask();
                if ((dirty & ~valid) != 0) {
                    std::ostringstream os;
                    os << "dirty-state violation: core " << c << " "
                       << (lvl == 0 ? "L1" : "L2") << " set " << s
                       << " has dirty bits 0x" << std::hex
                       << (dirty & ~valid) << std::dec
                       << " on invalid ways";
                    return os.str();
                }
                for (std::uint32_t w = 0; w < set.ways(); ++w) {
                    if (!((valid >> w) & 1u))
                        continue;
                    const Addr base =
                        cache.layout().compose(set.line(w).tag, addr_set);
                    if (!llc_->contains(MemRef::load(base))) {
                        const bool is_dirty = ((dirty >> w) & 1u) != 0;
                        std::ostringstream os;
                        os << "inclusion violation: "
                           << (is_dirty ? "dirty " : "") << "line 0x"
                           << std::hex << base << std::dec
                           << " valid in core " << c << " "
                           << (lvl == 0 ? "L1" : "L2") << " set " << s
                           << " way " << w << " but absent from the LLC"
                           << (is_dirty ? " (its write-back would be lost)"
                                        : "");
                        return os.str();
                    }
                }
            }
        }
    }
    // The shared level obeys the same dirty-subset-of-valid invariant,
    // and under SHARP its ownership must be coherent: a line owned by
    // core c is a line whose freshest copy sits in c's private caches.
    for (std::uint32_t s = 0; s < llc_->storageSets(); ++s) {
        const ConstSetView set = llc_->cacheSet(s);
        if ((set.dirtyMask() & ~set.validMask()) != 0) {
            std::ostringstream os;
            os << "dirty-state violation: LLC set " << s
               << " has dirty bits 0x" << std::hex
               << (set.dirtyMask() & ~set.validMask()) << std::dec
               << " on invalid ways";
            return os.str();
        }
        if (!sharpLlc())
            continue;
        for (std::uint32_t w = 0; w < set.ways(); ++w) {
            if (!((set.validMask() >> w) & 1u))
                continue;
            const std::uint32_t owner = set.owner(w);
            if (owner == kNoOwner)
                continue;
            const Addr base =
                llc_->layout().compose(set.line(w).tag,
                                       llc_->addressSetOf(s));
            const MemRef probe = MemRef::load(base);
            if (owner >= cores() || (!l1_[owner]->contains(probe) &&
                                     !l2_[owner]->contains(probe))) {
                std::ostringstream os;
                os << "ownership violation: LLC line 0x" << std::hex
                   << base << std::dec << " set " << s << " way " << w
                   << " owned by core " << owner;
                if (owner >= cores())
                    os << " which does not exist";
                else
                    os << " but absent from that core's private caches";
                return os.str();
            }
        }
    }
    return std::nullopt;
}

void
MultiCoreHierarchy::reset(std::uint64_t seed)
{
    config_.seed = seed;
    for (std::uint32_t c = 0; c < cores(); ++c) {
        l1_[c]->reset(coreSeed(seed, c, 0));
        l2_[c]->reset(coreSeed(seed, c, 1));
    }
    llc_->reset(llcSeed(seed));
    back_invalidations_ = 0;
    dirty_writebacks_ = 0;
}

void
MultiCoreHierarchy::resetCounters()
{
    for (std::uint32_t c = 0; c < cores(); ++c) {
        l1_[c]->counters().reset();
        l2_[c]->counters().reset();
    }
    llc_->counters().reset();
}

} // namespace lruleak::sim
