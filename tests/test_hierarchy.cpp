/**
 * @file
 * Tests for the three-level cache hierarchy.
 */

#include <gtest/gtest.h>

#include "sim/hierarchy.hpp"

using namespace lruleak::sim;

TEST(Hierarchy, ColdAccessGoesToMemoryAndFillsAllLevels)
{
    CacheHierarchy h;
    const auto ref = MemRef::load(0x1000);
    EXPECT_EQ(h.access(ref).level, HitLevel::Memory);
    EXPECT_TRUE(h.l1().contains(ref));
    EXPECT_TRUE(h.l2().contains(ref));
    EXPECT_TRUE(h.llc().contains(ref));
    EXPECT_EQ(h.access(ref).level, HitLevel::L1);
}

TEST(Hierarchy, L1EvictionFallsBackToL2)
{
    CacheHierarchy h;
    const AddressLayout &layout = h.l1().layout();
    const auto victim = MemRef::load(lineInSet(layout, 9, 0));
    h.access(victim);
    // Evict it from L1 with 8 more same-set lines.
    for (std::uint32_t i = 1; i <= 8; ++i)
        h.access(MemRef::load(lineInSet(layout, 9, i)));
    EXPECT_FALSE(h.inL1(victim));
    EXPECT_EQ(h.access(victim).level, HitLevel::L2);
}

TEST(Hierarchy, FlushRemovesFromEveryLevel)
{
    CacheHierarchy h;
    const auto ref = MemRef::load(0x2000);
    h.access(ref);
    h.flush(ref);
    EXPECT_FALSE(h.inAnyLevel(ref));
    EXPECT_EQ(h.access(ref).level, HitLevel::Memory);
}

TEST(Hierarchy, PeekLevelDoesNotMutate)
{
    CacheHierarchy h;
    const auto ref = MemRef::load(0x3000);
    EXPECT_EQ(h.peekLevel(ref), HitLevel::Memory);
    EXPECT_FALSE(h.inAnyLevel(ref)); // peek must not install
    h.access(ref);
    EXPECT_EQ(h.peekLevel(ref), HitLevel::L1);
    const auto l1_before = h.l1().counters().total().accesses;
    h.peekLevel(ref);
    EXPECT_EQ(h.l1().counters().total().accesses, l1_before);
}

TEST(Hierarchy, LowerLevelCountersTickOnlyOnMiss)
{
    // Matches hardware perf events: L2 accesses == L1 misses.
    CacheHierarchy h;
    const auto ref = MemRef::load(0x4000, 2);
    h.access(ref); // miss everywhere
    h.access(ref); // L1 hit
    h.access(ref); // L1 hit
    EXPECT_EQ(h.l1().counters().forThread(2).accesses, 3u);
    EXPECT_EQ(h.l1().counters().forThread(2).misses, 1u);
    EXPECT_EQ(h.l2().counters().forThread(2).accesses, 1u);
    EXPECT_EQ(h.llc().counters().forThread(2).accesses, 1u);
}

TEST(Hierarchy, ResetCountersKeepsContents)
{
    CacheHierarchy h;
    const auto ref = MemRef::load(0x5000);
    h.access(ref);
    h.resetCounters();
    EXPECT_TRUE(h.inL1(ref));
    EXPECT_EQ(h.l1().counters().total().accesses, 0u);
}

TEST(Hierarchy, WayPredictorMismatchChargesL2Latency)
{
    HierarchyConfig cfg;
    cfg.l1_way_predictor = true;
    CacheHierarchy h(cfg);
    const Addr paddr = 0x0040;
    h.access(MemRef{0x7000'0040, paddr, 0, false});
    const auto res = h.access(MemRef{0x9000'0040, paddr, 1, false});
    EXPECT_TRUE(res.l1_utag_mismatch);
    EXPECT_EQ(res.level, HitLevel::L2);
    // No architectural L2 access happens for a predictor mishap.
    EXPECT_EQ(h.l2().counters().forThread(1).accesses, 0u);
}

TEST(Hierarchy, PrefetcherPullsStridedLines)
{
    HierarchyConfig cfg;
    cfg.enable_prefetcher = true;
    CacheHierarchy h(cfg);
    // Walk a steady stride; after training, upcoming lines are in L1.
    const Addr base = 0x10'0000;
    for (int i = 0; i < 8; ++i)
        h.access(MemRef::load(base + static_cast<Addr>(i) * 64));
    EXPECT_TRUE(h.inL1(MemRef::load(base + 9 * 64)));
}

TEST(Hierarchy, NoPrefetchWhenDisabled)
{
    CacheHierarchy h;
    const Addr base = 0x10'0000;
    for (int i = 0; i < 8; ++i)
        h.access(MemRef::load(base + static_cast<Addr>(i) * 64));
    EXPECT_FALSE(h.inL1(MemRef::load(base + 9 * 64)));
}

TEST(Hierarchy, PlBypassDoesNotFillL1)
{
    HierarchyConfig cfg;
    cfg.l1_pl_mode = PlMode::Original;
    CacheHierarchy h(cfg);
    const AddressLayout &layout = h.l1().layout();
    // Lock the whole set.
    for (std::uint32_t i = 0; i < 8; ++i)
        h.access(MemRef::load(lineInSet(layout, 2, i)), LockReq::Lock);
    const auto ref = MemRef::load(lineInSet(layout, 2, 20));
    const auto res = h.access(ref);
    EXPECT_TRUE(res.l1_bypassed);
    EXPECT_FALSE(h.inL1(ref));
    // The data still came from somewhere below L1.
    EXPECT_NE(res.level, HitLevel::L1);
    // And is served from L2 next time (still bypassing L1).
    EXPECT_EQ(h.access(ref).level, HitLevel::L2);
}

TEST(Hierarchy, GeometryMatchesTestedCpus)
{
    CacheHierarchy h;
    EXPECT_EQ(h.l1().config().size_bytes, 32u * 1024);
    EXPECT_EQ(h.l1().config().ways, 8u);
    EXPECT_EQ(h.l1().numSets(), 64u);
}

// ------------------------------------------------------ steady-hit probe

namespace {

/** Every L1 set and every level's counters, for "untouched" checks. */
struct Snapshot
{
    std::vector<CacheSet> l1_sets;
    LevelStats l1, l2, llc;

    explicit Snapshot(const CacheHierarchy &h)
        : l1(h.l1().counters().total()), l2(h.l2().counters().total()),
          llc(h.llc().counters().total())
    {
        for (std::uint32_t s = 0; s < h.l1().storageSets(); ++s)
            l1_sets.push_back(h.l1().cacheSet(s));
    }

    void
    expectUnchanged(const CacheHierarchy &h) const
    {
        const Snapshot now(h);
        EXPECT_TRUE(now.l1_sets == l1_sets);
        for (const auto &[a, b] : {std::pair{now.l1, l1},
                                   std::pair{now.l2, l2},
                                   std::pair{now.llc, llc}}) {
            EXPECT_EQ(a.accesses, b.accesses);
            EXPECT_EQ(a.hits, b.hits);
            EXPECT_EQ(a.writebacks, b.writebacks);
        }
    }
};

/** Warm @p refs into the hierarchy until they are a fixed point. */
void
warm(CacheHierarchy &h, const std::vector<MemRef> &refs)
{
    for (int i = 0; i < 3; ++i)
        h.accessBatch(refs);
}

} // namespace

TEST(SteadyHitProbe, AcceptsAWarmFixedPointWithoutTouchingAnything)
{
    for (ReplPolicyKind kind : allReplPolicyKinds()) {
        HierarchyConfig hc;
        hc.l1 = CacheConfig::intelL1d(kind);
        CacheHierarchy h(hc);
        const AddressLayout &layout = h.l1().layout();
        const std::vector<MemRef> refs{
            MemRef::load(lineInSet(layout, 7, 0)),
            MemRef::load(lineInSet(layout, 24, 0)),
            MemRef::load(lineInSet(layout, 24, 1))};
        warm(h, refs);
        const Snapshot before(h);
        EXPECT_TRUE(h.steadyL1Hits(refs)) << replPolicyName(kind);
        before.expectUnchanged(h);
        // ...and it really is one: a replay changes only the counters.
        h.accessBatch(refs);
        for (std::uint32_t s = 0; s < h.l1().numSets(); ++s)
            EXPECT_TRUE(h.l1().cacheSet(s) == before.l1_sets[s]);
    }
}

TEST(SteadyHitProbe, RefusesAMiss)
{
    CacheHierarchy h;
    const AddressLayout &layout = h.l1().layout();
    const std::vector<MemRef> warm_refs{MemRef::load(lineInSet(layout, 3, 0))};
    warm(h, warm_refs);
    const std::vector<MemRef> refs{warm_refs[0],
                                   MemRef::load(lineInSet(layout, 3, 1))};
    const Snapshot before(h);
    EXPECT_FALSE(h.steadyL1Hits(refs));
    before.expectUnchanged(h);
}

TEST(SteadyHitProbe, RefusesHitsThatAreNotAFixedPoint)
{
    // Bit-PLRU: with the MRU bits of ways 5..7 set, touching ways 0..4
    // saturates and wraps the bits — all hits, but the set changes.
    HierarchyConfig hc;
    hc.l1 = CacheConfig::intelL1d(ReplPolicyKind::BitPlru);
    CacheHierarchy h(hc);
    const AddressLayout &layout = h.l1().layout();
    std::vector<MemRef> lines;
    for (std::uint32_t i = 0; i < 8; ++i)
        lines.push_back(MemRef::load(lineInSet(layout, 5, i)));
    h.accessBatch(lines); // fills ways 0..7 (fills leave MRU bits clear)
    h.accessBatch(std::vector<MemRef>(lines.begin() + 5, lines.end()));
    const std::vector<MemRef> refs(lines.begin(), lines.begin() + 5);

    const Snapshot before(h);
    EXPECT_FALSE(h.steadyL1Hits(refs));
    before.expectUnchanged(h);

    // Tree-PLRU: a touch that moves the tree bits is refused; once they
    // point away from the line, the same touch is a fixed point.
    CacheHierarchy g;
    const MemRef a = MemRef::load(lineInSet(g.l1().layout(), 9, 0));
    const MemRef b = MemRef::load(lineInSet(g.l1().layout(), 9, 1));
    g.access(a);
    g.access(b);
    EXPECT_FALSE(g.steadyL1Hits(std::vector<MemRef>{a}));
    g.access(a);
    EXPECT_TRUE(g.steadyL1Hits(std::vector<MemRef>{a}));
}

TEST(SteadyHitProbe, RefusesUtagMismatches)
{
    // AMD way predictor: the same physical line under a second linear
    // address hits but retrains the utag — an L2-latency access.
    HierarchyConfig hc;
    hc.l1_way_predictor = true;
    CacheHierarchy h(hc);
    const Addr pa = lineInSet(h.l1().layout(), 11, 0);
    const MemRef mine{pa, pa, 0, false};
    const MemRef alias{pa + 0x10'0000, pa, 1, false};
    warm(h, {mine});
    EXPECT_TRUE(h.steadyL1Hits(std::vector<MemRef>{mine}));
    const Snapshot before(h);
    EXPECT_FALSE(h.steadyL1Hits(std::vector<MemRef>{alias}));
    before.expectUnchanged(h);
}

TEST(SteadyHitProbe, RefusesAnAttachedPrefetcher)
{
    HierarchyConfig hc;
    hc.enable_prefetcher = true;
    CacheHierarchy h(hc);
    const std::vector<MemRef> refs{
        MemRef::load(lineInSet(h.l1().layout(), 2, 0))};
    warm(h, refs);
    const Snapshot before(h);
    EXPECT_FALSE(h.steadyL1Hits(refs));
    before.expectUnchanged(h);
}

TEST(SteadyHitProbe, StoresFoldOnlyIntoAWriteBackL1)
{
    for (const WriteHitPolicy policy :
         {WriteHitPolicy::WriteBack, WriteHitPolicy::WriteThrough}) {
        HierarchyConfig hc;
        hc.l1.write_hit = policy;
        CacheHierarchy h(hc);
        const Addr a = lineInSet(h.l1().layout(), 4, 0);
        const std::vector<MemRef> refs{MemRef{a, a, 0, true}};
        warm(h, refs); // write-back: the line is dirty by now
        const Snapshot before(h);
        EXPECT_EQ(h.steadyL1Hits(refs),
                  policy == WriteHitPolicy::WriteBack);
        before.expectUnchanged(h);
    }

    // A store to a clean write-back line dirties it: not a fixed point.
    CacheHierarchy h;
    const Addr a = lineInSet(h.l1().layout(), 4, 0);
    warm(h, {MemRef::load(a)});
    EXPECT_FALSE(h.steadyL1Hits(std::vector<MemRef>{MemRef{a, a, 0, true}}));
}

TEST(SteadyHitProbe, RefusesEverySecureMode)
{
    for (const SecureMode mode :
         {SecureMode::Dawg, SecureMode::RandomFill, SecureMode::Sharp}) {
        HierarchyConfig hc;
        hc.l1.secure = mode;
        CacheHierarchy h(hc);
        const std::vector<MemRef> refs{
            MemRef::load(lineInSet(h.l1().layout(), 6, 0))};
        warm(h, refs);
        const Snapshot before(h);
        EXPECT_FALSE(h.steadyL1Hits(refs)) << secureModeName(mode);
        EXPECT_FALSE(h.l1().steadyHits(refs)) << secureModeName(mode);
        before.expectUnchanged(h);
    }
}
