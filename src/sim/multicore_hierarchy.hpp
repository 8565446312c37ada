/**
 * @file
 * Multi-core cache topology: N cores with private L1D/L2 stacks behind
 * one shared *inclusive* LLC.
 *
 * The single-core CacheHierarchy models the paper's hyper-threaded and
 * time-sliced settings, where sender and receiver share a physical core
 * and its L1.  The cross-core scenario family instead communicates
 * through the shared LLC, and its channel relies on one specific piece
 * of coherence machinery: **back-invalidation**.  An inclusive LLC
 * guarantees that every line valid in any private cache is also present
 * in the LLC; to keep that invariant, an LLC eviction must invalidate
 * the victim line in every core's private caches.  That is exactly how
 * a receiver's LLC-set walk reaches across cores and kicks the sender's
 * line out of the sender's own L1 — and how the sender's fills, in
 * turn, disturb the LLC replacement state the receiver decodes.
 *
 * Address-space note: the multi-core scenarios run with identity VA==PA
 * mappings (as all the Algorithm-2 layouts do), so back-invalidation
 * and the inclusion audit index private caches with the physical line
 * base reconstructed from the LLC's (tag, set).  The single-core-only
 * features (PL locking, the AMD way predictor, the stride prefetcher)
 * are not modelled here.
 */

#ifndef LRULEAK_SIM_MULTICORE_HIERARCHY_HPP
#define LRULEAK_SIM_MULTICORE_HIERARCHY_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/hierarchy.hpp"

namespace lruleak::sim {

/** Configuration of the whole multi-core topology. */
struct MultiCoreConfig
{
    std::uint32_t cores = 2;               //!< number of cores (>= 1)
    CacheConfig l1 = CacheConfig::intelL1d();  //!< per-core private L1D
    CacheConfig l2 = CacheConfig::intelL2();   //!< per-core private L2
    CacheConfig llc = CacheConfig::intelLlc(); //!< shared inclusive LLC
    std::uint64_t seed = 0; //!< base seed (per-core caches derive theirs)

    bool operator==(const MultiCoreConfig &) const = default;
};

/**
 * Equal in everything but the base seed: a MultiCoreHierarchy built
 * from @p a can be reset(@p b.seed) (the session topology pool's key).
 */
bool sameTopology(MultiCoreConfig a, const MultiCoreConfig &b);

/**
 * Outcome of one multi-core access.  Aligned to 8, which pads it to 16
 * bytes, so it comes back in two whole registers: at 12 bytes GCC
 * builds the return value on the stack from narrow stores and reloads
 * it wide, which stalls store forwarding on every access.
 */
struct alignas(8) MultiCoreAccessResult
{
    HitLevel level = HitLevel::Memory; //!< level that served the data
    bool llc_filled = false;           //!< the access installed an LLC line
    std::uint32_t back_invalidated = 0; //!< private copies removed by the
                                        //!< LLC eviction this fill caused
    std::uint32_t writebacks = 0;      //!< write-back transactions this
                                       //!< access triggered (dirty private
                                       //!< victims, dirty LLC victims and
                                       //!< their back-invalidated copies —
                                       //!< the latter exactly once per line)
};

/**
 * N private L1D/L2 stacks sharing one inclusive LLC.
 *
 * Inclusion invariant: every line valid in any private cache is present
 * in the LLC.  Maintained by (a) installing every demand miss into the
 * LLC on the same access that fills the private caches and (b) back-
 * invalidating LLC eviction victims out of every private cache.
 * auditInclusion() walks the full topology and reports the first
 * violation — the debug-only safety net the multi-core scheduler runs.
 */
class MultiCoreHierarchy
{
  public:
    explicit MultiCoreHierarchy(const MultiCoreConfig &config = {});

    /**
     * Demand access issued by @p core.  Fills every missed level; an LLC
     * fill that displaces a valid victim back-invalidates that line in
     * all cores' private caches.
     */
    MultiCoreAccessResult access(std::uint32_t core, const MemRef &ref);

    /**
     * Replay a whole access sequence from @p core, recording the level
     * each access was served from (semantically one access() per ref).
     * Used by the execution engine's kernel-noise bursts in the
     * time-sliced-over-multicore scenarios.
     * @pre levels.size() >= refs.size()
     */
    void accessBatch(std::uint32_t core, std::span<const MemRef> refs,
                     std::span<HitLevel> levels);

    /** Same, for callers that do not need the individual outcomes. */
    void accessBatch(std::uint32_t core, std::span<const MemRef> refs);

    /**
     * Demand run: one access() per reference, per-ref levels out, summed
     * write-back transactions returned.  No in-tree caller: kept as a
     * layer entry point that the benchmark's traced build intercepts by
     * name.
     * @pre levels.size() >= refs.size()
     */
    std::uint64_t accessRun(std::uint32_t core, std::span<const MemRef> refs,
                            std::span<HitLevel> levels);

    /**
     * clflush: remove the line from every cache of every core.  Reports
     * whether any copy existed and whether any of them was dirty (the
     * flush then stalls until the data reaches memory).
     */
    CacheFlushResult flush(const MemRef &ref);

    /** Level a demand access by @p core would hit (no state change). */
    HitLevel peekLevel(std::uint32_t core, const MemRef &ref) const;

    /** Present in the shared LLC? (no state change) */
    bool inLlc(const MemRef &ref) const { return llc_->contains(ref); }

    Cache &l1(std::uint32_t core) { return *l1_[core]; }
    Cache &l2(std::uint32_t core) { return *l2_[core]; }
    Cache &llc() { return *llc_; }
    const Cache &l1(std::uint32_t core) const { return *l1_[core]; }
    const Cache &l2(std::uint32_t core) const { return *l2_[core]; }
    const Cache &llc() const { return *llc_; }

    std::uint32_t cores() const
    {
        return static_cast<std::uint32_t>(l1_.size());
    }

    const MultiCoreConfig &config() const { return config_; }

    /** Total private-cache lines removed by back-invalidation so far. */
    std::uint64_t backInvalidations() const { return back_invalidations_; }

    /** Total memory write-back transactions performed so far (dirty
     *  evictions, dirty back-invalidations, dirty flushes). */
    std::uint64_t dirtyWritebacks() const { return dirty_writebacks_; }

    /**
     * Inclusion audit: walk every valid private-cache line and probe the
     * LLC for it, and check dirty-state coherence (a dirty bit may only
     * annotate a valid line, at every level including the LLC).  Returns
     * a description of the first violating line, or nullopt when the
     * invariants hold.  Read-only; cost is proportional to the
     * private-cache capacity, so callers sample it (see the multi-core
     * scheduler's audit_every knob).
     */
    std::optional<std::string> auditInclusion() const;

    /** Reset contents, replacement state and counters of every cache. */
    void reset() { reset(config_.seed); }

    /**
     * reset() under base seed @p seed: leaves the topology byte-equal
     * to a fresh MultiCoreHierarchy whose config differs only in seed.
     */
    void reset(std::uint64_t seed);

    /** Reset only the performance counters (start of a measured region). */
    void resetCounters();

  private:
    /**
     * Remove @p line_base from every core's private caches.  @return
     * true iff any removed copy was dirty — the caller must then issue
     * exactly one memory write-back for the line (the dirty data is
     * drained before the invalidation completes).
     */
    bool backInvalidate(Addr line_base);

    /** Land a dirty victim evicted from @p core's cache at @p level
     *  (0 = L1, 1 = L2) in the next write-back level holding the line,
     *  or in memory. */
    void landPrivateWriteback(std::uint32_t core, int level,
                              Addr line_base);

    /** An L1 hit's outcome: a store into a write-through L1 is
     *  forwarded downstream. */
    MultiCoreAccessResult l1Hit(std::uint32_t core, const MemRef &ref);

    /** access() past the L1 exit: the walk from @p core's L1 down to
     *  the shared LLC (a plain L1 is known to miss). */
    MultiCoreAccessResult walk(std::uint32_t core, const MemRef &ref);

    /** Is the shared level a SHARP-protected cache? */
    bool
    sharpLlc() const
    {
        return config_.llc.secure == SecureMode::Sharp;
    }

    MultiCoreConfig config_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> llc_;
    bool plain_l1_ = false; //!< every L1 is Cache::plain(): hits exit
                            //!< after one probe (see access())
    std::uint64_t back_invalidations_ = 0;
    std::uint64_t dirty_writebacks_ = 0;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_MULTICORE_HIERARCHY_HPP
