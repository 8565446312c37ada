/**
 * @file
 * The set algorithms (SetView) and the standalone CacheSet: the paper's
 * Fig. 10 flow chart lives here.
 */

#include "sim/cache_set.hpp"

#include <bit>

namespace lruleak::sim {

CacheSet::CacheSet(std::uint32_t ways, ReplState state, PlMode pl_mode,
                   WriteHitPolicy write_hit, WriteMissPolicy write_miss)
    : store_{SetShape{ways, pl_mode, write_hit, write_miss},
             SetState(std::move(state))}
{
    checkWays(ways);
    store_.owners.fill(kNoOwner);
    bind();
}

CacheSet::CacheSet(const ConstSetView &view)
    : store_{*view.shape_, *view.state_}
{
    store_.owners.fill(kNoOwner);
    for (std::uint32_t w = 0; w < view.ways(); ++w) {
        store_.tags[w] = view.tags_[w];
        store_.utags[w] = view.line(w).utag;
        store_.owners[w] = view.owner(w);
    }
    bind();
}

// The inherited view points into store_, so a copy takes the storage
// and re-points its own view; assignment keeps the view it has.
CacheSet::CacheSet(const CacheSet &other) : SetView(), store_(other.store_)
{
    bind();
}

CacheSet &
CacheSet::operator=(const CacheSet &other)
{
    store_ = other.store_;
    return *this;
}

void
CacheSet::bind()
{
    static_cast<SetView &>(*this) =
        SetView(store_.shape, store_.tags.data(), store_.state,
                store_.utags.data(), store_.owners.data());
}

bool
operator==(const ConstSetView &a, const ConstSetView &b)
{
    if (!(*a.shape_ == *b.shape_) || !(*a.state_ == *b.state_))
        return false;
    for (std::uint32_t w = 0; w < a.ways(); ++w) {
        if (a.tags_[w] != b.tags_[w] || a.line(w).utag != b.line(w).utag ||
            a.owner(w) != b.owner(w))
            return false;
    }
    return true;
}

std::uint32_t
ConstSetView::occupancy() const
{
    return static_cast<std::uint32_t>(std::popcount(state_->valid_mask));
}

void
SetView::fill(std::uint32_t way, Addr tag, bool lock, std::uint16_t utag,
              bool dirty)
{
    SetState &st = mutableState();
    mutableTags()[way] = tag;
    st.valid_mask |= 1u << way;
    if (lock)
        st.locked_mask |= 1u << way;
    else
        st.locked_mask &= ~(1u << way);
    if (dirty)
        st.dirty_mask |= 1u << way;
    else
        st.dirty_mask &= ~(1u << way);
    if (utags_)
        mutableUtags()[way] = utag;
    if (owners_)
        mutableOwners()[way] = kNoOwner; // plain fills install unowned lines;
                                 // accessSharp re-stamps after filling
}

SetAccessResult
SetView::access(Addr tag, std::uint16_t utag, bool check_utag,
                LockReq lock_req, bool is_write)
{
    const std::uint32_t w = probe(tag);
    if (w == kNoWay)
        return miss(tag, utag, lock_req, is_write);

    // ----- Cache hit path of Fig. 10.
    SetState &st = mutableState();
    const SetShape &shape = *shape_;
    SetAccessResult res;
    res.hit = true;
    res.way = w;

    if (check_utag && utags_[w] != utag) {
        // AMD way predictor: the load matched the physical tag but the
        // stored linear-address utag disagrees, so the hardware first
        // misses in the predicted way and retrains the utag.  The
        // caller charges miss-like latency for this access.
        res.utag_mismatch = true;
        mutableUtags()[w] = utag;
    }

    const bool locked_hit = ((st.locked_mask >> w) & 1u) != 0;
    if (shape.pl_mode == PlMode::FixedLruLock && locked_hit) {
        // Blue box: "Normal hit; Do not update replacement state".
    } else {
        st.repl.touch(w);
    }

    // A store leaves the line dirty only under write-back; under
    // write-through the data goes downstream immediately and the cached
    // copy stays clean.
    if (is_write && shape.write_hit == WriteHitPolicy::WriteBack)
        st.dirty_mask |= 1u << w;

    if (lock_req == LockReq::Lock && shape.pl_mode != PlMode::Disabled)
        st.locked_mask |= 1u << w;
    else if (lock_req == LockReq::Unlock)
        st.locked_mask &= ~(1u << w);
    return res;
}

SetAccessResult
SetView::miss(Addr tag, std::uint16_t utag, LockReq lock_req, bool is_write)
{
    SetState &st = mutableState();
    const SetShape &shape = *shape_;
    SetAccessResult res;
    const bool mark_dirty =
        is_write && shape.write_hit == WriteHitPolicy::WriteBack;

    if (is_write && shape.write_miss == WriteMissPolicy::NoWriteAllocate) {
        // No-write-allocate: the store bypasses this level entirely —
        // no fill, no replacement-state update.
        res.write_no_alloc = true;
        return res;
    }

    // ----- Cache miss path of Fig. 10: choose a victim.
    // Invalid ways are filled first (lowest index), as in real caches;
    // the replacement policy only arbitrates between valid lines.
    const bool lock =
        lock_req == LockReq::Lock && shape.pl_mode != PlMode::Disabled;
    const std::uint32_t first_invalid =
        std::countr_one(st.valid_mask); // index of the lowest clear bit
    if (first_invalid < shape.ways) {
        fill(first_invalid, tag, lock, utag, mark_dirty);
        st.repl.onFill(first_invalid);
        res.hit = false;
        res.way = first_invalid;
        res.filled = true;
        return res;
    }

    std::uint32_t victim_way;
    if (shape.pl_mode == PlMode::FixedLruLock) {
        // Blue behaviour: locked ways are excluded from victim selection
        // so the replacement decision is independent of locked lines.
        victim_way = st.repl.selectVictimUnlocked(st.locked_mask);
        if (victim_way == kNoWay) {
            res.bypassed = true; // whole set locked: handle uncached
            return res;
        }
    } else {
        victim_way = st.repl.selectVictim();
        if (shape.pl_mode == PlMode::Original &&
            ((st.locked_mask >> victim_way) & 1u)) {
            // White box: "victim locked? -> ld/st without replacement".
            res.bypassed = true;
            return res;
        }
    }

    res.evicted = true;
    res.evicted_tag = tags_[victim_way];
    res.dirty_writeback = ((st.dirty_mask >> victim_way) & 1u) != 0;
    fill(victim_way, tag, lock, utag, mark_dirty);
    st.repl.onFill(victim_way);

    res.hit = false;
    res.way = victim_way;
    res.filled = true;
    return res;
}

SetAccessResult
SetView::accessSharp(Addr tag, bool is_write, std::uint32_t domain,
                     bool flagged, SharpSetEvents &ev)
{
    SetState &st = mutableState();
    const SetShape &shape = *shape_;
    SetAccessResult res;
    const bool mark_dirty =
        is_write && shape.write_hit == WriteHitPolicy::WriteBack;

    if (const std::uint32_t w = probe(tag); w != kNoWay) {
        // Hit: identical to the plain path, plus an ownership transfer —
        // the accessor's private caches now hold the freshest copy.
        res.hit = true;
        res.way = w;
        st.repl.touch(w);
        if (mark_dirty)
            st.dirty_mask |= 1u << w;
        mutableOwners()[w] = domain;
        return res;
    }

    if (is_write && shape.write_miss == WriteMissPolicy::NoWriteAllocate) {
        res.write_no_alloc = true;
        return res;
    }

    const std::uint32_t first_invalid = std::countr_one(st.valid_mask);
    if (first_invalid < shape.ways) {
        fill(first_invalid, tag, false, 0, mark_dirty);
        st.repl.onFill(first_invalid);
        mutableOwners()[first_invalid] = domain;
        res.way = first_invalid;
        res.filled = true;
        return res;
    }

    // Victim filtering: preview what the replacement state would evict
    // (victim() is guaranteed to preview the exact way selectVictim()
    // commits).  A foreign-owned choice is a refusal event.
    std::uint32_t foreign = 0;
    for (std::uint32_t w = 0; w < shape.ways; ++w) {
        if (owners_[w] != kNoOwner && owners_[w] != domain)
            foreign |= 1u << w;
    }

    std::uint32_t victim_way;
    if ((foreign >> st.repl.victim()) & 1u) {
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
            victim_way = st.repl.selectVictim();
        } else {
            // Re-victimize like the SHARP paper: prefer a line nobody
            // holds privately (unowned) before sacrificing one of the
            // requester's own lines — evicting the requester's own
            // recently-touched data would let any cross-core miss stream
            // degrade an innocent core's working set.
            std::uint32_t unowned = kNoWay;
            for (std::uint32_t w = 0; w < shape.ways; ++w) {
                if (owners_[w] == kNoOwner) {
                    unowned = w;
                    break;
                }
            }
            victim_way = unowned != kNoWay
                             ? unowned
                             : st.repl.selectVictimUnlocked(foreign);
        }
    } else {
        victim_way = st.repl.selectVictim();
    }

    res.evicted = true;
    res.evicted_tag = tags_[victim_way];
    res.dirty_writeback = ((st.dirty_mask >> victim_way) & 1u) != 0;
    fill(victim_way, tag, false, 0, mark_dirty);
    st.repl.onFill(victim_way);
    mutableOwners()[victim_way] = domain;
    res.way = victim_way;
    res.filled = true;
    return res;
}

bool
SetView::releaseOwner(Addr tag, std::uint32_t domain)
{
    if (!owners_)
        return false;
    const std::uint32_t way = probe(tag);
    if (way != kNoWay && owners_[way] == domain) {
        mutableOwners()[way] = kNoOwner;
        return true;
    }
    return false;
}

namespace {

/**
 * The specialised replay loop.  @p kWays = 0 keeps the way count a
 * runtime value; a non-zero kWays makes it a compile-time constant so
 * the probe loop fully unrolls.  The loop still maintains the dirty
 * mask: a load fill can evict a line a per-access store dirtied
 * earlier.
 */
template <std::uint32_t kWays, typename St>
inline SetBatchStats
runBatchLoop(St &st, Addr *const set_tags, std::uint16_t *const utags,
             std::uint32_t &valid_ref,
             std::uint32_t &dirty_ref, std::uint32_t runtime_ways,
             std::uint32_t full, std::span<const Addr> tags)
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
            ++stats.hits;
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
                ++stats.evictions;
            }
            stats.dirty_writebacks += dirty_wb ? 1 : 0;
            dirty &= ~(1u << victim);
            set_tags[victim] = tag;
            if (utags)
                utags[victim] = 0;
            local.onFill(victim);
            ++stats.fills;
        }
    }
    st = local;
    valid_ref = valid;
    dirty_ref = dirty;
    return stats;
}

/** Dispatch the replay loop over (state alternative, common way count). */
inline SetBatchStats
dispatchBatch(ReplState &repl, Addr *set_tags, std::uint16_t *utags,
              std::uint32_t &valid_ref,
              std::uint32_t &dirty_ref, std::uint32_t ways,
              std::uint32_t full, std::span<const Addr> tags)
{
    return repl.visitState([&](auto &st) {
        switch (ways) {
          case 8:
            return runBatchLoop<8>(st, set_tags, utags, valid_ref,
                                   dirty_ref, ways, full, tags);
          case 16:
            return runBatchLoop<16>(st, set_tags, utags, valid_ref,
                                    dirty_ref, ways, full, tags);
          default:
            return runBatchLoop<0>(st, set_tags, utags, valid_ref,
                                   dirty_ref, ways, full, tags);
        }
    });
}

} // namespace

SetBatchStats
SetView::replayBatch(std::span<const Addr> tags)
{
    if (shape_->pl_mode != PlMode::Disabled) {
        // Lock bits in play: take the general per-access path.
        SetBatchStats stats;
        stats.accesses = tags.size();
        for (std::size_t i = 0; i < tags.size(); ++i) {
            const auto res = access(tags[i], 0, false, LockReq::None);
            stats.hits += res.hit ? 1 : 0;
            stats.fills += res.filled ? 1 : 0;
            stats.evictions += res.evicted ? 1 : 0;
            stats.dirty_writebacks += res.dirty_writeback ? 1 : 0;
        }
        return stats;
    }

    // One dispatch for the whole batch: the loop is instantiated per
    // concrete replacement state (and per common way count), so
    // touch/onFill/selectVictim are direct, inlinable calls on a
    // register-resident state machine.
    SetState &st = mutableState();
    return dispatchBatch(st.repl, mutableTags(), mutableUtags(),
                         st.valid_mask, st.dirty_mask, shape_->ways,
                         fullMask(), tags);
}

SetFlushResult
SetView::flushLine(Addr tag)
{
    SetFlushResult res;
    if (const std::uint32_t way = probe(tag); way != kNoWay) {
        const std::uint32_t bit = 1u << way;
        SetState &st = mutableState();
        res.present = true;
        res.dirty = (st.dirty_mask & bit) != 0;
        st.valid_mask &= ~bit;
        st.locked_mask &= ~bit;
        st.dirty_mask &= ~bit;
        mutableTags()[way] = 0;
        if (utags_)
            mutableUtags()[way] = 0;
        if (owners_)
            mutableOwners()[way] = kNoOwner;
    }
    return res;
}

bool
SetView::markDirty(Addr tag)
{
    const std::uint32_t way = probe(tag);
    if (way != kNoWay)
        mutableState().dirty_mask |= 1u << way;
    return way != kNoWay;
}

SetAccessResult
SetView::prefetchFill(Addr tag, std::uint16_t utag)
{
    SetAccessResult res;
    if (const std::uint32_t way = probe(tag); way != kNoWay) {
        // Already present: hardware prefetchers still promote the line.
        res.hit = true;
        res.way = way;
        mutableState().repl.touch(way);
        return res;
    }
    return access(tag, utag, false, LockReq::None);
}

void
SetView::reset()
{
    const std::uint32_t ways = shape_->ways;
    SetState &st = mutableState();
    st.valid_mask = 0;
    st.locked_mask = 0;
    st.dirty_mask = 0;
    for (std::uint32_t w = 0; w < ways; ++w)
        mutableTags()[w] = 0;
    if (utags_) {
        for (std::uint32_t w = 0; w < ways; ++w)
            mutableUtags()[w] = 0;
    }
    if (owners_) {
        for (std::uint32_t w = 0; w < ways; ++w)
            mutableOwners()[w] = kNoOwner;
    }
    st.repl.reset();
}

} // namespace lruleak::sim
