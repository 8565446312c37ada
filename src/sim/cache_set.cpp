/**
 * @file
 * CacheSet implementation: the paper's Fig. 10 flow chart lives here.
 */

#include "sim/cache_set.hpp"

#include <bit>

namespace lruleak::sim {

CacheSet::CacheSet(std::uint32_t ways, ReplState state, PlMode pl_mode,
                   WriteHitPolicy write_hit, WriteMissPolicy write_miss)
    : ways_(ways), pl_mode_(pl_mode), write_hit_(write_hit),
      write_miss_(write_miss), tags_(ways, 0), utags_(ways, 0),
      repl_(std::move(state))
{
}

std::optional<std::uint32_t>
CacheSet::probe(Addr tag) const
{
    const Addr *tags = tags_.data();
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (((valid_mask_ >> w) & 1u) && tags[w] == tag)
            return w;
    }
    return std::nullopt;
}

void
CacheSet::fill(std::uint32_t way, Addr tag, bool lock, std::uint16_t utag,
               bool dirty)
{
    tags_[way] = tag;
    valid_mask_ |= 1u << way;
    if (lock)
        locked_mask_ |= 1u << way;
    else
        locked_mask_ &= ~(1u << way);
    if (dirty)
        dirty_mask_ |= 1u << way;
    else
        dirty_mask_ &= ~(1u << way);
    utags_[way] = utag;
    if (!owners_.empty())
        owners_[way] = kNoOwner; // plain fills install unowned lines;
                                 // accessSharp re-stamps after filling
}

SetAccessResult
CacheSet::access(Addr tag, std::uint16_t utag, bool check_utag,
                 LockReq lock_req, bool is_write)
{
    SetAccessResult res;
    // A store leaves the line dirty only under write-back; under
    // write-through the data goes downstream immediately and the cached
    // copy stays clean.
    const bool mark_dirty =
        is_write && write_hit_ == WriteHitPolicy::WriteBack;

    if (auto way = probe(tag)) {
        // ----- Cache hit path of Fig. 10.
        const std::uint32_t w = *way;
        res.hit = true;
        res.way = w;

        if (check_utag && utags_[w] != utag) {
            // AMD way predictor: the load matched the physical tag but the
            // stored linear-address utag disagrees, so the hardware first
            // misses in the predicted way and retrains the utag.  The
            // caller charges miss-like latency for this access.
            res.utag_mismatch = true;
            utags_[w] = utag;
        }

        const bool locked_hit = ((locked_mask_ >> w) & 1u) != 0;
        if (pl_mode_ == PlMode::FixedLruLock && locked_hit) {
            // Blue box: "Normal hit; Do not update replacement state".
        } else {
            repl_.touch(w);
        }

        if (mark_dirty)
            dirty_mask_ |= 1u << w;

        if (lock_req == LockReq::Lock && pl_mode_ != PlMode::Disabled)
            locked_mask_ |= 1u << w;
        else if (lock_req == LockReq::Unlock)
            locked_mask_ &= ~(1u << w);
        return res;
    }

    if (is_write && write_miss_ == WriteMissPolicy::NoWriteAllocate) {
        // No-write-allocate: the store bypasses this level entirely —
        // no fill, no replacement-state update.
        res.write_no_alloc = true;
        return res;
    }

    // ----- Cache miss path of Fig. 10: choose a victim.
    // Invalid ways are filled first (lowest index), as in real caches;
    // the replacement policy only arbitrates between valid lines.
    const bool lock =
        lock_req == LockReq::Lock && pl_mode_ != PlMode::Disabled;
    const std::uint32_t first_invalid =
        std::countr_one(valid_mask_); // index of the lowest clear bit
    if (first_invalid < ways_) {
        fill(first_invalid, tag, lock, utag, mark_dirty);
        repl_.onFill(first_invalid);
        res.hit = false;
        res.way = first_invalid;
        res.filled = true;
        return res;
    }

    std::uint32_t victim_way;
    if (pl_mode_ == PlMode::FixedLruLock) {
        // Blue behaviour: locked ways are excluded from victim selection
        // so the replacement decision is independent of locked lines.
        victim_way = repl_.selectVictimUnlocked(locked_mask_);
        if (victim_way == kNoWay) {
            res.bypassed = true; // whole set locked: handle uncached
            return res;
        }
    } else {
        victim_way = repl_.selectVictim();
        if (pl_mode_ == PlMode::Original &&
            ((locked_mask_ >> victim_way) & 1u)) {
            // White box: "victim locked? -> ld/st without replacement".
            res.bypassed = true;
            return res;
        }
    }

    res.evicted = true;
    res.evicted_tag = tags_[victim_way];
    res.dirty_writeback = ((dirty_mask_ >> victim_way) & 1u) != 0;
    fill(victim_way, tag, lock, utag, mark_dirty);
    repl_.onFill(victim_way);

    res.hit = false;
    res.way = victim_way;
    res.filled = true;
    return res;
}

SetAccessResult
CacheSet::accessSharp(Addr tag, bool is_write, std::uint32_t domain,
                      bool flagged, SharpSetEvents &ev)
{
    if (owners_.empty())
        owners_.assign(ways_, kNoOwner);
    SetAccessResult res;
    const bool mark_dirty =
        is_write && write_hit_ == WriteHitPolicy::WriteBack;

    if (auto way = probe(tag)) {
        // Hit: identical to the plain path, plus an ownership transfer —
        // the accessor's private caches now hold the freshest copy.
        const std::uint32_t w = *way;
        res.hit = true;
        res.way = w;
        repl_.touch(w);
        if (mark_dirty)
            dirty_mask_ |= 1u << w;
        owners_[w] = domain;
        return res;
    }

    if (is_write && write_miss_ == WriteMissPolicy::NoWriteAllocate) {
        res.write_no_alloc = true;
        return res;
    }

    const std::uint32_t first_invalid = std::countr_one(valid_mask_);
    if (first_invalid < ways_) {
        fill(first_invalid, tag, false, 0, mark_dirty);
        repl_.onFill(first_invalid);
        owners_[first_invalid] = domain;
        res.way = first_invalid;
        res.filled = true;
        return res;
    }

    // Victim filtering: preview what the replacement state would evict
    // (victim() is guaranteed to preview the exact way selectVictim()
    // commits).  A foreign-owned choice is a refusal event.
    std::uint32_t foreign = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (owners_[w] != kNoOwner && owners_[w] != domain)
            foreign |= 1u << w;
    }

    std::uint32_t victim_way;
    if ((foreign >> repl_.victim()) & 1u) {
        ++ev.alarms;
        if (foreign == fullMask()) {
            // Every way belongs to someone else: nothing safe to evict.
            if (flagged) {
                // The requester has alarmed too often already — deny the
                // fill outright.  Nothing (including the replacement
                // state) changes; the access is served uncached.
                ev.denied = true;
                res.bypassed = true;
                return res;
            }
            ev.forced = true;
            victim_way = repl_.selectVictim();
        } else {
            // Re-victimize like the SHARP paper: prefer a line nobody
            // holds privately (unowned) before sacrificing one of the
            // requester's own lines — evicting the requester's own
            // recently-touched data would let any cross-core miss stream
            // degrade an innocent core's working set.
            std::uint32_t unowned = kNoWay;
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (owners_[w] == kNoOwner) {
                    unowned = w;
                    break;
                }
            }
            victim_way = unowned != kNoWay
                             ? unowned
                             : repl_.selectVictimUnlocked(foreign);
        }
    } else {
        victim_way = repl_.selectVictim();
    }

    res.evicted = true;
    res.evicted_tag = tags_[victim_way];
    res.dirty_writeback = ((dirty_mask_ >> victim_way) & 1u) != 0;
    fill(victim_way, tag, false, 0, mark_dirty);
    repl_.onFill(victim_way);
    owners_[victim_way] = domain;
    res.way = victim_way;
    res.filled = true;
    return res;
}

bool
CacheSet::releaseOwner(Addr tag, std::uint32_t domain)
{
    if (owners_.empty())
        return false;
    if (auto way = probe(tag)) {
        if (owners_[*way] == domain) {
            owners_[*way] = kNoOwner;
            return true;
        }
    }
    return false;
}

namespace {

/**
 * The specialised batch inner loop, shared by the results-collecting
 * accessBatch and the stats-only replayBatch (@p kCollect selects at
 * compile time).  @p kWays = 0 keeps the way count a runtime value; a
 * non-zero kWays makes it a compile-time constant so the probe loop
 * fully unrolls.  @p kWrites enables the store path (@p writes runs
 * parallel to @p tags); read-only instantiations still maintain the
 * dirty mask, because a read fill can evict a line dirtied earlier.
 */
template <std::uint32_t kWays, bool kCollect, bool kWrites, typename St>
inline SetBatchStats
runBatchLoop(St &st, Addr *const set_tags, std::uint16_t *const utags,
             std::uint32_t &valid_ref,
             std::uint32_t &dirty_ref, std::uint32_t runtime_ways,
             std::uint32_t full, std::span<const Addr> tags,
             const std::uint8_t *const writes, bool wb_hits, bool allocate,
             SetAccessResult *const results)
{
    const std::uint32_t ways = kWays != 0 ? kWays : runtime_ways;
    // Work on register-resident copies: the POD state and the masks stay
    // out of memory for the whole batch (the tag stores in the loop
    // could otherwise alias them and force reloads).
    St local = st;
    std::uint32_t valid = valid_ref;
    std::uint32_t dirty = dirty_ref;
    SetBatchStats stats;
    stats.accesses = tags.size();
    const std::size_t n = tags.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Addr tag = tags[i];
        SetAccessResult res;
        bool is_write = false;
        if constexpr (kWrites)
            is_write = writes[i] != 0;
        const bool mark_dirty = is_write && wb_hits;

        std::uint32_t way = kNoWay;
        if (valid == full) {
            // Steady state: every way valid, skip the per-way bit test.
            for (std::uint32_t w = 0; w < ways; ++w) {
                if (set_tags[w] == tag) {
                    way = w;
                    break;
                }
            }
        } else {
            for (std::uint32_t w = 0; w < ways; ++w) {
                if (((valid >> w) & 1u) && set_tags[w] == tag) {
                    way = w;
                    break;
                }
            }
        }

        if (way != kNoWay) {
            local.touch(way);
            if constexpr (kWrites) {
                if (mark_dirty)
                    dirty |= 1u << way;
            }
            if constexpr (kCollect) {
                res.hit = true;
                res.way = way;
            } else {
                ++stats.hits;
            }
        } else if (kWrites && is_write && !allocate) {
            // No-write-allocate: the store bypasses this level.
            if constexpr (kCollect)
                res.write_no_alloc = true;
        } else {
            std::uint32_t victim;
            bool dirty_wb = false;
            if (valid != full) {
                victim = static_cast<std::uint32_t>(
                    std::countr_one(valid)); // lowest invalid way
                valid |= 1u << victim;
            } else {
                victim = local.selectVictim();
                dirty_wb = ((dirty >> victim) & 1u) != 0;
                if constexpr (kCollect) {
                    res.evicted = true;
                    res.evicted_tag = set_tags[victim];
                    res.dirty_writeback = dirty_wb;
                } else {
                    ++stats.evictions;
                }
            }
            stats.dirty_writebacks += dirty_wb ? 1 : 0;
            if (mark_dirty)
                dirty |= 1u << victim;
            else
                dirty &= ~(1u << victim);
            set_tags[victim] = tag;
            utags[victim] = 0;
            local.onFill(victim);
            if constexpr (kCollect) {
                res.way = victim;
                res.filled = true;
            } else {
                ++stats.fills;
            }
        }
        if constexpr (kCollect)
            results[i] = res;
    }
    st = local;
    valid_ref = valid;
    dirty_ref = dirty;
    return stats;
}

/** Dispatch the batch loop over (state alternative, common way count). */
template <bool kCollect, bool kWrites>
inline SetBatchStats
dispatchBatch(ReplState &repl, Addr *set_tags, std::uint16_t *utags,
              std::uint32_t &valid_ref,
              std::uint32_t &dirty_ref, std::uint32_t ways,
              std::uint32_t full, std::span<const Addr> tags,
              const std::uint8_t *writes, bool wb_hits, bool allocate,
              SetAccessResult *results)
{
    return repl.visitState([&](auto &st) {
        switch (ways) {
          case 8:
            return runBatchLoop<8, kCollect, kWrites>(
                st, set_tags, utags, valid_ref, dirty_ref, ways, full,
                tags, writes, wb_hits, allocate, results);
          case 16:
            return runBatchLoop<16, kCollect, kWrites>(
                st, set_tags, utags, valid_ref, dirty_ref, ways, full,
                tags, writes, wb_hits, allocate, results);
          default:
            return runBatchLoop<0, kCollect, kWrites>(
                st, set_tags, utags, valid_ref, dirty_ref, ways, full,
                tags, writes, wb_hits, allocate, results);
        }
    });
}

} // namespace

void
CacheSet::accessBatch(std::span<const Addr> tags,
                      std::span<SetAccessResult> results)
{
    if (pl_mode_ != PlMode::Disabled) {
        // Lock bits in play: take the general per-access path.
        for (std::size_t i = 0; i < tags.size(); ++i)
            results[i] = access(tags[i], 0, false, LockReq::None);
        return;
    }

    // One dispatch for the whole batch: the loop is instantiated per
    // concrete replacement state (and per common way count), so
    // touch/onFill/selectVictim are direct, inlinable calls on a
    // register-resident state machine.
    dispatchBatch<true, false>(repl_, tags_.data(), utags_.data(),
                               valid_mask_, dirty_mask_, ways_, fullMask(),
                               tags, nullptr,
                               write_hit_ == WriteHitPolicy::WriteBack,
                               write_miss_ == WriteMissPolicy::WriteAllocate,
                               results.data());
}

void
CacheSet::accessBatch(std::span<const Addr> tags,
                      std::span<const std::uint8_t> writes,
                      std::span<SetAccessResult> results)
{
    if (pl_mode_ != PlMode::Disabled) {
        for (std::size_t i = 0; i < tags.size(); ++i)
            results[i] =
                access(tags[i], 0, false, LockReq::None, writes[i] != 0);
        return;
    }
    dispatchBatch<true, true>(repl_, tags_.data(), utags_.data(),
                              valid_mask_, dirty_mask_, ways_, fullMask(),
                              tags, writes.data(),
                              write_hit_ == WriteHitPolicy::WriteBack,
                              write_miss_ == WriteMissPolicy::WriteAllocate,
                              results.data());
}

SetBatchStats
CacheSet::replayBatch(std::span<const Addr> tags)
{
    if (pl_mode_ != PlMode::Disabled) {
        SetBatchStats stats;
        stats.accesses = tags.size();
        for (const Addr tag : tags) {
            const auto res = access(tag, 0, false, LockReq::None);
            stats.hits += res.hit ? 1 : 0;
            stats.fills += res.filled ? 1 : 0;
            stats.evictions += res.evicted ? 1 : 0;
            stats.dirty_writebacks += res.dirty_writeback ? 1 : 0;
        }
        return stats;
    }
    return dispatchBatch<false, false>(
        repl_, tags_.data(), utags_.data(), valid_mask_, dirty_mask_, ways_,
        fullMask(), tags, nullptr, write_hit_ == WriteHitPolicy::WriteBack,
        write_miss_ == WriteMissPolicy::WriteAllocate, nullptr);
}

SetBatchStats
CacheSet::replayBatch(std::span<const Addr> tags,
                      std::span<const std::uint8_t> writes)
{
    if (pl_mode_ != PlMode::Disabled) {
        SetBatchStats stats;
        stats.accesses = tags.size();
        for (std::size_t i = 0; i < tags.size(); ++i) {
            const auto res = access(tags[i], 0, false, LockReq::None,
                                    writes[i] != 0);
            stats.hits += res.hit ? 1 : 0;
            stats.fills += res.filled ? 1 : 0;
            stats.evictions += res.evicted ? 1 : 0;
            stats.dirty_writebacks += res.dirty_writeback ? 1 : 0;
        }
        return stats;
    }
    return dispatchBatch<false, true>(
        repl_, tags_.data(), utags_.data(), valid_mask_, dirty_mask_, ways_,
        fullMask(), tags, writes.data(),
        write_hit_ == WriteHitPolicy::WriteBack,
        write_miss_ == WriteMissPolicy::WriteAllocate, nullptr);
}

bool
CacheSet::invalidate(Addr tag)
{
    return flushLine(tag).present;
}

SetFlushResult
CacheSet::flushLine(Addr tag)
{
    SetFlushResult res;
    if (auto way = probe(tag)) {
        const std::uint32_t bit = 1u << *way;
        res.present = true;
        res.dirty = (dirty_mask_ & bit) != 0;
        valid_mask_ &= ~bit;
        locked_mask_ &= ~bit;
        dirty_mask_ &= ~bit;
        tags_[*way] = 0;
        utags_[*way] = 0;
        if (!owners_.empty())
            owners_[*way] = kNoOwner;
    }
    return res;
}

bool
CacheSet::markDirty(Addr tag)
{
    if (auto way = probe(tag)) {
        dirty_mask_ |= 1u << *way;
        return true;
    }
    return false;
}

SetAccessResult
CacheSet::prefetchFill(Addr tag, std::uint16_t utag)
{
    SetAccessResult res;
    if (auto way = probe(tag)) {
        // Already present: hardware prefetchers still promote the line.
        res.hit = true;
        res.way = *way;
        repl_.touch(*way);
        return res;
    }
    return access(tag, utag, false, LockReq::None);
}

std::uint32_t
CacheSet::occupancy() const
{
    return static_cast<std::uint32_t>(std::popcount(valid_mask_));
}

void
CacheSet::reset()
{
    valid_mask_ = 0;
    locked_mask_ = 0;
    dirty_mask_ = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        tags_[w] = 0;
        utags_[w] = 0;
    }
    owners_.clear();
    repl_.reset();
}

} // namespace lruleak::sim
