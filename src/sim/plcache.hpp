/**
 * @file
 * Partition-Locked (PL) cache facade (paper Section IX-B, Fig. 10/11).
 *
 * PL cache [Wang & Lee, ISCA'07] extends every line with a lock bit: a
 * locked line is never evicted; if the replacement policy picks a locked
 * victim, the incoming access is handled uncached.  The paper shows the
 * *original* design still leaks through the LRU state (accesses to locked
 * lines update it) and proposes the fix of locking the LRU state too.
 *
 * The actual flow chart is implemented in SetView::access; this class is
 * the user-facing handle that issues lock/unlock requests and toggles the
 * original/fixed behaviour.
 */

#ifndef LRULEAK_SIM_PLCACHE_HPP
#define LRULEAK_SIM_PLCACHE_HPP

#include "sim/hierarchy.hpp"

namespace lruleak::sim {

/**
 * A cache hierarchy whose L1D is a PL cache.
 */
class PlCache
{
  public:
    /**
     * @param mode PlMode::Original reproduces the vulnerable design;
     *        PlMode::FixedLruLock adds the paper's blue-box fix.
     * @param config base hierarchy geometry (the L1 PL mode is overriden)
     */
    explicit PlCache(PlMode mode, HierarchyConfig config = {})
        : hierarchy_((config.l1_pl_mode = mode, config))
    {}

    /** Load @p ref and set its lock bit (fetching it if absent). */
    HierarchyAccessResult
    lock(const MemRef &ref)
    {
        return hierarchy_.access(ref, LockReq::Lock);
    }

    /** Load @p ref and clear its lock bit. */
    HierarchyAccessResult
    unlock(const MemRef &ref)
    {
        return hierarchy_.access(ref, LockReq::Unlock);
    }

    /** Plain access through the PL L1. */
    HierarchyAccessResult
    access(const MemRef &ref)
    {
        return hierarchy_.access(ref);
    }

    /** Is the line currently locked in L1? */
    bool
    isLocked(const MemRef &ref) const
    {
        const auto &l1 = hierarchy_.l1();
        const auto set = l1.layout().setIndex(ref.vaddr);
        const auto tag = l1.layout().tag(ref.paddr);
        const ConstSetView view = l1.cacheSet(set);
        const std::uint32_t way = view.probe(tag);
        return way != kNoWay && view.line(way).locked;
    }

    PlMode mode() const { return hierarchy_.l1().plMode(); }
    CacheHierarchy &hierarchy() { return hierarchy_; }
    const CacheHierarchy &hierarchy() const { return hierarchy_; }

  private:
    CacheHierarchy hierarchy_;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_PLCACHE_HPP
