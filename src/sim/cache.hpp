/**
 * @file
 * A set-associative cache level stored as flat arrays: one tag array of
 * storage sets x ways, one SetState record (masks + replacement state)
 * per storage set, and a utag array / owner array only when the level
 * has the way predictor / runs SHARP.  The set algorithms run on
 * SetView slices of that storage (see cache_set.hpp).
 */

#ifndef LRULEAK_SIM_CACHE_HPP
#define LRULEAK_SIM_CACHE_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/address.hpp"
#include "sim/cache_config.hpp"
#include "sim/cache_set.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace lruleak::sim {

/** Outcome of a cache-level access, in address space. */
struct CacheAccessResult
{
    bool hit = false;
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    bool filled = false;
    bool bypassed = false;
    bool utag_mismatch = false;
    bool dirty_writeback = false;  //!< the victim line was dirty
    bool write_no_alloc = false;   //!< store miss bypassed this level
                                   //!< (no-write-allocate)
    std::optional<Addr> evicted_line; //!< line base address of the victim
};

/** Outcome of removing a line from a level (clflush / back-invalidation). */
struct CacheFlushResult
{
    bool present = false;
    bool dirty = false; //!< the removed copy was dirty: write-back due
};

/**
 * One cache level.  VIPT: the set index comes from the virtual address,
 * the tag from the physical address.  Supports PL-cache lock bits and the
 * AMD utag way predictor, both off by default.
 *
 * Secure modes (CacheConfig::secure; see cache_config.hpp): under
 * SecureMode::Dawg every address set is split into `secure_domains`
 * partitions, each with its own ways and its own ReplState; thread t
 * lives entirely in partition t % domains, and only flush /
 * invalidateLine / markDirtyLine reach across partitions (coherence
 * must, visibility must not).  Under SecureMode::RandomFill a demand
 * miss is served uncached and a random neighbourhood line is installed
 * instead (deterministically, from a seed-derived stream); hits —
 * including their replacement-state update — behave normally.  Under
 * SecureMode::Sharp every line carries an owning protection domain and
 * evictions of foreign-owned lines are refused / re-victimized /
 * alarmed (accessFrom names the domain; plain access derives it from
 * ref.thread % secure_domains).
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config,
                   PlMode pl_mode = PlMode::Disabled,
                   bool way_predictor = false);

    /** Demand access (load/store), with optional PL lock request. */
    CacheAccessResult access(const MemRef &ref,
                             LockReq lock_req = LockReq::None);

    /**
     * Is this a plain level — SecureMode::None, no PL lock bits, no way
     * predictor — whose demand access is one probe, then a hit update
     * or a fill?  Only such a level serves hitPlain() and accessMiss().
     */
    bool
    plain() const
    {
        return config_.secure == SecureMode::None &&
               shape_.pl_mode == PlMode::Disabled && !way_predictor_;
    }

    /**
     * The hit half of access() on a plain() level, inline for the
     * hierarchy's L1 exit: probe once; on a hit do what access() does
     * (the replacement-state hit update, the dirty bit of a write-back
     * store, the counter) and return the way; on a miss change nothing
     * and return kNoWay, for accessMiss() to finish.
     */
    std::uint32_t
    hitPlain(const MemRef &ref)
    {
        SetView set = cacheSet(layout_.setIndex(ref.vaddr));
        const std::uint32_t way = set.probe(layout_.tag(ref.paddr));
        if (way != kNoWay) {
            set.touchHit(way, ref.is_write);
            counters_.record(ref.thread, true);
        }
        return way;
    }

    /**
     * The miss half of access() on a plain() level, for a @p ref that
     * hitPlain() has just found absent: the fill (or no-write-allocate
     * bypass) and its counters into @p res, without probing the set
     * again.
     */
    void accessMiss(const MemRef &ref, CacheAccessResult &res);

    /**
     * Demand access on behalf of protection domain @p domain (the
     * issuing core, for a SHARP-protected shared LLC — ref.thread is a
     * software thread id and does *not* name the core).  Identical to
     * access() unless this level runs SecureMode::Sharp.
     */
    CacheAccessResult accessFrom(std::uint32_t domain, const MemRef &ref,
                                 LockReq lock_req = LockReq::None);

    /**
     * SHARP: drop @p domain's ownership of @p line_base (the domain's
     * last private copy above this level went away).  Stale calls — the
     * line is absent or owned by someone else by now — are no-ops.
     */
    void releaseOwner(std::uint32_t domain, Addr line_base);

    /** SHARP per-domain refusal alarms (0 when not Sharp). */
    std::uint64_t
    sharpAlarms(std::uint32_t domain) const
    {
        return domain < sharp_alarms_.size() ? sharp_alarms_[domain] : 0;
    }
    std::uint64_t sharpAlarmsTotal() const;
    std::uint64_t sharpForcedTotal() const;
    std::uint64_t sharpDeniedTotal() const;

    /** Prefetch fill: installs the line and updates LRU without a hit
     *  or miss count.  A dirty victim sets dirty_writeback and counts
     *  as a write-back; the caller lands it one level down. */
    CacheAccessResult prefetch(const MemRef &ref);

    /** Presence check without any state change. */
    bool contains(const MemRef &ref) const;

    /**
     * Steady-hit probe: would replaying @p refs (demand accesses, no
     * lock requests) hit on every one, with no utag mismatch, and leave
     * every touched set byte-equal to its current state?  Replays on
     * copies of the touched sets; changes nothing.  Then the sequence
     * is a fixed point: any number of repeats hits the same way and
     * only ticks the perf counters.  Secure modes always answer false.
     */
    bool steadyHits(std::span<const MemRef> refs) const;

    /**
     * clflush semantics for this level.  The result reports presence
     * and whether the dropped copy was dirty (its data must be written
     * back before the invalidation completes).
     */
    CacheFlushResult flush(const MemRef &ref);

    /**
     * Back-invalidation hook for an inclusive outer level: remove the
     * line with base address @p line_base, no counter activity.  Indexes
     * by the physical line base — exact under the identity VA==PA
     * mappings the multi-core scenarios use (and for any L1, whose set
     * bits sit inside the page offset).
     */
    CacheFlushResult
    invalidateLine(Addr line_base)
    {
        return flush(MemRef::load(line_base));
    }

    /**
     * Land a write-back from the level above: mark the line dirty
     * without touching replacement state or counters.  @return true iff
     * the line is present at this level.
     */
    bool markDirtyLine(Addr line_base);

    /** Clear all contents, replacement state and counters. */
    void reset() { reset(config_.seed); }

    /**
     * reset() under a new Random-policy seed: leaves the cache
     * byte-equal to a fresh Cache built from config() with seed = @p seed
     * (per-set Random streams seed + s, the RandomFill stream).
     */
    void reset(std::uint64_t seed);

    const CacheConfig &config() const { return config_; }
    const AddressLayout &layout() const { return layout_; }
    const PerfCounters &counters() const { return counters_; }
    PerfCounters &counters() { return counters_; }

    /**
     * View of storage set @p index (see storageSets()).  Views point into
     * the level's flat arrays: valid until the Cache is destroyed or
     * assigned to.
     */
    ConstSetView
    cacheSet(std::uint32_t index) const
    {
        const std::size_t base = static_cast<std::size_t>(index) * shape_.ways;
        return ConstSetView(shape_, tags_.data() + base, states_[index],
                            utags_.empty() ? nullptr : utags_.data() + base,
                            owners_.empty() ? nullptr : owners_.data() + base);
    }
    SetView
    cacheSet(std::uint32_t index)
    {
        const std::size_t base = static_cast<std::size_t>(index) * shape_.ways;
        return SetView(shape_, tags_.data() + base, states_[index],
                       utags_.empty() ? nullptr : utags_.data() + base,
                       owners_.empty() ? nullptr : owners_.data() + base);
    }

    std::uint32_t numSets() const { return layout_.numSets(); }

    /**
     * Number of storage sets: numSets() for a plain cache, numSets() *
     * secure_domains under SecureMode::Dawg.  Audit walks iterate
     * storage sets and map back to the address set with addressSetOf().
     */
    std::uint32_t
    storageSets() const
    {
        return static_cast<std::uint32_t>(states_.size());
    }

    /** Address set index a storage index belongs to. */
    std::uint32_t
    addressSetOf(std::uint32_t storage_index) const
    {
        return config_.secure == SecureMode::Dawg
                   ? storage_index / config_.secure_domains
                   : storage_index;
    }

    PlMode plMode() const { return shape_.pl_mode; }

  private:
    /** Storage set for (address set, issuing thread): the thread's DAWG
     *  partition when partitioned, the plain set otherwise. */
    std::uint32_t
    storageIndex(std::uint32_t set, ThreadId thread) const
    {
        if (config_.secure == SecureMode::Dawg)
            return set * config_.secure_domains +
                   thread % config_.secure_domains;
        return set;
    }

    /** The plain demand access of @p ref on storage set @p storage
     *  (address set @p set), with its counter updates. */
    void demandAccess(std::uint32_t storage, std::uint32_t set,
                      const MemRef &ref, LockReq lock_req,
                      CacheAccessResult &res);

    /** Demand access under a secure mode (DAWG, RandomFill, SHARP);
     *  @p domain names the SHARP protection domain. */
    CacheAccessResult accessSecure(std::uint32_t domain, const MemRef &ref,
                                   LockReq lock_req);

    /** RandomFill miss handler: install a random neighbourhood line. */
    SetAccessResult randomFill(const MemRef &ref, std::uint32_t &fill_set);

    /** Translate a set-level outcome on address set @p set. */
    void setResult(const SetAccessResult &sr, std::uint32_t set,
                   CacheAccessResult &res) const;

    /** setResult() plus the demand access's counter updates. */
    void demandResult(const SetAccessResult &sr, std::uint32_t set,
                      const MemRef &ref, CacheAccessResult &res);

    CacheConfig config_;
    AddressLayout layout_;
    bool way_predictor_;
    SetShape shape_;
    // Flat per-level storage, storage set s at [s * ways, (s+1) * ways).
    std::vector<Addr> tags_;
    std::vector<SetState> states_;
    std::vector<std::uint16_t> utags_;  //!< empty without way predictor
    std::vector<std::uint32_t> owners_; //!< empty unless SecureMode::Sharp
    PerfCounters counters_;
    Xoshiro256 fill_rng_; //!< RandomFill neighbourhood stream
    // SHARP per-domain event counters (sized secure_domains iff Sharp).
    std::vector<std::uint64_t> sharp_alarms_;
    std::vector<std::uint64_t> sharp_forced_;
    std::vector<std::uint64_t> sharp_denied_;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_CACHE_HPP
