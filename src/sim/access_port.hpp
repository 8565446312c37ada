/**
 * @file
 * Hierarchy-agnostic access interface.
 *
 * The execution engine runs thread programs against "whatever memory
 * system the scenario uses": the single-core CacheHierarchy (SMT and
 * time-sliced sharing) or the MultiCoreHierarchy (cross-core scenarios).
 * AccessPort is the narrow waist between the two: a demand access issued
 * from a core, a batched replay of a whole access sequence (the kernel
 * bursts of the time-sliced model), a topology-wide flush, and the
 * optional inclusion audit.  The two adapters below are pass-throughs —
 * they add no behaviour, only erase the concrete topology type — so a
 * scheduler ported from a concrete hierarchy to a port is access-for-
 * access identical.
 */

#ifndef LRULEAK_SIM_ACCESS_PORT_HPP
#define LRULEAK_SIM_ACCESS_PORT_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"

namespace lruleak::sim {

/**
 * Outcome of a port access: where the data came from, and how many
 * write-back transactions the access triggered along the way (dirty
 * victim evictions, write-through forwards, dirty back-invalidations).
 * The engine charges each transaction the uarch's write-back latency.
 */
struct PortAccess
{
    HitLevel level = HitLevel::Memory;
    std::uint32_t writebacks = 0;
};

/**
 * One memory system as seen by the execution engine: N cores issuing
 * demand accesses, each served at some HitLevel.
 */
class AccessPort
{
  public:
    virtual ~AccessPort() = default;

    /** Number of cores that can issue accesses ([0, cores()) are valid). */
    virtual std::uint32_t cores() const = 0;

    /** Demand access issued by @p core. */
    virtual PortAccess access(std::uint32_t core, const MemRef &ref,
                              LockReq lock_req = LockReq::None) = 0;

    /**
     * Replay a whole access sequence from @p core, recording the level
     * each access was served from (semantically one access() per ref).
     * @pre levels.size() >= refs.size()
     */
    virtual void accessBatch(std::uint32_t core, std::span<const MemRef> refs,
                             std::span<HitLevel> levels) = 0;

    /** Same, for callers that do not need the individual outcomes. */
    virtual void accessBatch(std::uint32_t core,
                             std::span<const MemRef> refs) = 0;

    /**
     * clflush: remove the line from every cache of every core.  Reports
     * presence and whether any dropped copy was dirty (the flush then
     * stalls on the write-back — the `flush-dirty` channel observable).
     */
    virtual CacheFlushResult flush(const MemRef &ref) = 0;

    /**
     * Walk the topology's inclusion invariant, if it has one.  Returns a
     * description of the first violation, nullopt when the invariant
     * holds or the topology has nothing to audit (single-core).
     */
    virtual std::optional<std::string>
    auditInclusion() const
    {
        return std::nullopt;
    }

    /**
     * Fold probe for the engine's steady-iteration fast path: when
     * replaying @p refs from @p core would be all L1 hits that leave the
     * memory system unchanged (CacheHierarchy::steadyL1Hits), return the
     * L1 counters those hits tally into, so a caller that skips the
     * replays can credit them; nullptr otherwise.  Changes nothing.
     * The default never folds (multi-core: another core's traffic can
     * land between any two ops).  A port that confirms must have no
     * inclusion invariant: folded accesses skip the engine's audits.
     */
    virtual PerfCounters *
    steadyHitCounters(std::uint32_t core, std::span<const MemRef> refs)
    {
        (void)core;
        (void)refs;
        return nullptr;
    }
};

/**
 * The single-core CacheHierarchy as an AccessPort (one core; the core
 * argument is ignored).  Lock requests reach the PL-cache model.
 */
class SingleCorePort final : public AccessPort
{
  public:
    explicit SingleCorePort(CacheHierarchy &hierarchy)
        : hierarchy_(hierarchy)
    {}

    std::uint32_t cores() const override { return 1; }

    PortAccess
    access(std::uint32_t, const MemRef &ref,
           LockReq lock_req = LockReq::None) override
    {
        const auto res = hierarchy_.access(ref, lock_req);
        return PortAccess{res.level, res.writebacks};
    }

    void
    accessBatch(std::uint32_t, std::span<const MemRef> refs,
                std::span<HitLevel> levels) override
    {
        hierarchy_.accessBatch(refs, levels);
    }

    void
    accessBatch(std::uint32_t, std::span<const MemRef> refs) override
    {
        hierarchy_.accessBatch(refs);
    }

    CacheFlushResult
    flush(const MemRef &ref) override
    {
        return hierarchy_.flush(ref);
    }

    PerfCounters *
    steadyHitCounters(std::uint32_t, std::span<const MemRef> refs) override
    {
        return hierarchy_.steadyL1Hits(refs) ? &hierarchy_.l1().counters()
                                             : nullptr;
    }

    CacheHierarchy &hierarchy() { return hierarchy_; }

  private:
    CacheHierarchy &hierarchy_;
};

/**
 * The MultiCoreHierarchy as an AccessPort.  Lock requests are ignored
 * (PL locking is a single-core-only feature); the inclusion audit is
 * live.
 */
class MultiCorePort final : public AccessPort
{
  public:
    explicit MultiCorePort(MultiCoreHierarchy &hierarchy)
        : hierarchy_(hierarchy)
    {}

    std::uint32_t cores() const override { return hierarchy_.cores(); }

    PortAccess
    access(std::uint32_t core, const MemRef &ref,
           LockReq = LockReq::None) override
    {
        const auto res = hierarchy_.access(core, ref);
        return PortAccess{res.level, res.writebacks};
    }

    void
    accessBatch(std::uint32_t core, std::span<const MemRef> refs,
                std::span<HitLevel> levels) override
    {
        hierarchy_.accessBatch(core, refs, levels);
    }

    void
    accessBatch(std::uint32_t core, std::span<const MemRef> refs) override
    {
        hierarchy_.accessBatch(core, refs);
    }

    CacheFlushResult
    flush(const MemRef &ref) override
    {
        return hierarchy_.flush(ref);
    }

    std::optional<std::string>
    auditInclusion() const override
    {
        return hierarchy_.auditInclusion();
    }

    MultiCoreHierarchy &hierarchy() { return hierarchy_; }

  private:
    MultiCoreHierarchy &hierarchy_;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_ACCESS_PORT_HPP
