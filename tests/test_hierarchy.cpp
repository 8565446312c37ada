/**
 * @file
 * Tests for the three-level cache hierarchy, and for resetting both
 * topologies under new seeds (whose traffic also checks accessRun
 * against per-ref access).
 */

#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <string>
#include <vector>

#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "same_topology.hpp"

using namespace lruleak::sim;
using lruleak::compare::expectSameHierarchy;
using lruleak::compare::expectSameMultiCore;

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

/** Dirty lines held by @p cache. */
std::uint64_t
dirtyLines(const Cache &cache)
{
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < cache.storageSets(); ++i)
        n += static_cast<std::uint64_t>(
            std::popcount(cache.cacheSet(i).dirtyMask()));
    return n;
}

TEST(Hierarchy, PrefetchFillsWriteBackTheDirtyLinesTheyEvict)
{
    HierarchyConfig cfg;
    cfg.enable_prefetcher = true;
    CacheHierarchy h(cfg);
    // A store stream over twice L1's lines, well inside L2: once it
    // wraps L1, the stride prefetcher's fills (ahead of the demand
    // stores, which then hit) evict the dirty lines of the first lap.
    const std::uint64_t lines = 2 * cfg.l1.size_bytes / cfg.l1.line_size;
    ASSERT_LT(lines, cfg.l2.size_bytes / cfg.l2.line_size);
    std::uint64_t demand_writebacks = 0;
    for (std::uint64_t i = 0; i < lines; ++i)
        demand_writebacks +=
            h.access(MemRef::store(0x10'0000 + i * cfg.l1.line_size))
                .writebacks;
    // Every stored line's data is dirty in L1, or was written back into
    // L2 when it left L1: none is dropped.
    EXPECT_EQ(dirtyLines(h.l1()) + dirtyLines(h.l2()), lines);
    EXPECT_EQ(dirtyLines(h.l2()), h.l1().counters().total().writebacks);
    // Most of those write-backs came from prefetch fills, which run off
    // the demand path and so are not in any access's count.
    EXPECT_LT(demand_writebacks, h.l1().counters().total().writebacks / 2);
    EXPECT_EQ(h.l2().counters().total().writebacks, 0u);
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
            l1_sets.emplace_back(h.l1().cacheSet(s));
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
            EXPECT_TRUE(h.l1().cacheSet(s) == before.l1_sets[s].view());
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

// ------------------------------------------------- reset under a new seed

namespace {

/** One topology variant: a replacement policy on every level, plus a
 *  secure mode where sessions put it (DAWG / Random Fill on L1, SHARP
 *  on the LLC). */
struct ResetCase
{
    ReplPolicyKind policy;
    SecureMode secure;
};

std::vector<ResetCase>
resetCases()
{
    std::vector<ResetCase> cases;
    for (ReplPolicyKind kind : allReplPolicyKinds())
        cases.push_back({kind, SecureMode::None});
    for (SecureMode mode :
         {SecureMode::Dawg, SecureMode::RandomFill, SecureMode::Sharp})
        cases.push_back({ReplPolicyKind::Random, mode});
    return cases;
}

template <typename Config>
void
applyCase(Config &config, const ResetCase &c)
{
    config.l1.policy = config.l2.policy = config.llc.policy = c.policy;
    (c.secure == SecureMode::Sharp ? config.llc : config.l1).secure =
        c.secure;
}

std::string
caseName(const ResetCase &c)
{
    return std::string(replPolicyName(c.policy)) + "/" +
           std::string(secureModeName(c.secure));
}

/** Same-set conflict traffic from three threads, a third of it stores:
 *  drives evictions, write-backs, Random streams, DAWG partitions,
 *  Random Fill draws and SHARP ownership. */
template <typename Access>
void
storm(const AddressLayout &l1, std::uint64_t seed, Access &&access)
{
    Xoshiro256 rng(seed);
    for (int i = 0; i < 3000; ++i) {
        const Addr a = lineInSet(l1, static_cast<std::uint32_t>(rng.below(4)),
                                 static_cast<std::uint32_t>(rng.below(40)));
        const auto thread = static_cast<ThreadId>(rng.below(3));
        access(MemRef{a, a, thread, rng.chance(1.0 / 3.0)});
    }
}

/** The storm's refs through @p run (accessRun over spans of them) and
 *  one by one through @p access on a twin: per-ref levels and summed
 *  write-backs agree, and the stream has dirty victims. */
template <typename Run, typename Access>
void
expectRunMatchesAccess(const AddressLayout &l1, std::uint64_t seed, Run &&run,
                       Access &&access, const std::string &what)
{
    std::vector<MemRef> refs;
    storm(l1, seed, [&](const MemRef &r) { refs.push_back(r); });
    std::vector<HitLevel> levels(refs.size());
    const std::uint64_t run_writebacks =
        run(std::span<const MemRef>(refs), std::span<HitLevel>(levels));
    std::uint64_t writebacks = 0;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const auto res = access(refs[i]);
        EXPECT_EQ(levels[i], res.level) << what << " ref " << i;
        writebacks += res.writebacks;
    }
    EXPECT_GT(writebacks, 0u) << what;
    EXPECT_EQ(run_writebacks, writebacks) << what;
}

} // namespace

TEST(HierarchyReset, NewSeedEqualsFreshConstruction)
{
    for (const ResetCase &c : resetCases()) {
        HierarchyConfig old_config;
        applyCase(old_config, c);
        old_config.l1.seed = 11;
        old_config.l2.seed = 12;
        old_config.llc.seed = 13;
        HierarchyConfig config = old_config;
        config.l1.seed = 21;
        config.l2.seed = 22;
        config.llc.seed = 23;

        CacheHierarchy used(old_config);
        const AddressLayout &l1 = used.l1().layout();
        storm(l1, 1, [&](const MemRef &r) { used.access(r); });
        ASSERT_TRUE(sameTopology(used.config(), config));
        used.reset(config);
        CacheHierarchy fresh(config);
        EXPECT_TRUE(used.config() == fresh.config()) << caseName(c);
        expectSameHierarchy(used, fresh, caseName(c));

        // Equal state must keep evolving identically: this also covers
        // what == cannot see (the Random Fill stream, SHARP counters).
        // One twin takes the traffic as a single accessRun.
        expectRunMatchesAccess(
            l1, 2,
            [&](std::span<const MemRef> refs, std::span<HitLevel> levels) {
                return used.accessRun(refs, levels);
            },
            [&](const MemRef &r) { return fresh.access(r); }, caseName(c));
        EXPECT_TRUE(used.config() == fresh.config()) << caseName(c);
        expectSameHierarchy(used, fresh, caseName(c) + " after traffic");
    }
}

TEST(HierarchyReset, MultiCoreNewSeedEqualsFreshConstruction)
{
    for (const ResetCase &c : resetCases()) {
        MultiCoreConfig config;
        config.cores = 3;
        applyCase(config, c);
        config.seed = 5;

        MultiCoreHierarchy used(config);
        const AddressLayout &l1 = used.l1(0).layout();
        storm(l1, 1, [&](const MemRef &r) { used.access(r.thread, r); });
        config.seed = 6;
        ASSERT_TRUE(sameTopology(used.config(), config));
        used.reset(config.seed);
        MultiCoreHierarchy fresh(config);
        EXPECT_TRUE(used.config() == fresh.config()) << caseName(c);
        expectSameMultiCore(used, fresh, caseName(c));

        // One twin takes the traffic as accessRun calls, one per run
        // of consecutive refs from the same core.
        const auto run = [&](std::span<const MemRef> refs,
                             std::span<HitLevel> levels) {
            std::uint64_t writebacks = 0;
            for (std::size_t i = 0, j = 0; i < refs.size(); i = j) {
                while (j < refs.size() && refs[j].thread == refs[i].thread)
                    ++j;
                writebacks += used.accessRun(refs[i].thread,
                                             refs.subspan(i, j - i),
                                             levels.subspan(i, j - i));
            }
            return writebacks;
        };
        expectRunMatchesAccess(
            l1, 2, run,
            [&](const MemRef &r) { return fresh.access(r.thread, r); },
            caseName(c));
        expectSameMultiCore(used, fresh, caseName(c) + " after traffic");
    }
}

TEST(HierarchyReset, TopologyKeyIgnoresOnlySeeds)
{
    HierarchyConfig a;
    HierarchyConfig b = a;
    b.l1.seed = 99;
    b.llc.seed = 7;
    EXPECT_TRUE(sameTopology(a, b));
    b.l1.policy = ReplPolicyKind::Random;
    EXPECT_FALSE(sameTopology(a, b));
    CacheHierarchy h(a);
    EXPECT_THROW(h.reset(b), std::invalid_argument);

    MultiCoreConfig m;
    MultiCoreConfig n = m;
    n.seed = 42;
    EXPECT_TRUE(sameTopology(m, n));
    n.cores = 3;
    EXPECT_FALSE(sameTopology(m, n));
}
