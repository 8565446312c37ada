/**
 * @file
 * Tests for CacheSet, including the PL-cache flow chart (Fig. 10).
 */

#include <gtest/gtest.h>

#include "sim/cache_set.hpp"

using namespace lruleak::sim;

namespace {

CacheSet
makeSet(std::uint32_t ways = 8,
        ReplPolicyKind kind = ReplPolicyKind::TreePlru,
        PlMode mode = PlMode::Disabled)
{
    return CacheSet(ways, ReplState::make(kind, ways, 1), mode);
}

SetAccessResult
access(CacheSet &set, Addr tag, LockReq req = LockReq::None)
{
    return set.access(tag, 0, false, req);
}

} // namespace

TEST(CacheSet, MissThenHit)
{
    auto set = makeSet();
    const auto first = access(set, 42);
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(first.filled);
    const auto second = access(set, 42);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.way, first.way);
}

TEST(CacheSet, FillsInvalidWaysFirstInOrder)
{
    auto set = makeSet();
    for (Addr t = 0; t < 8; ++t) {
        const auto res = access(set, 100 + t);
        EXPECT_FALSE(res.hit);
        EXPECT_EQ(res.way, t) << "cold fills must use invalid ways 0..7";
        EXPECT_FALSE(res.evicted);
    }
    EXPECT_EQ(set.occupancy(), 8u);
}

TEST(CacheSet, EvictionReportsVictimTag)
{
    auto set = makeSet();
    for (Addr t = 0; t < 8; ++t)
        access(set, t);
    const auto res = access(set, 99);
    EXPECT_FALSE(res.hit);
    ASSERT_TRUE(res.evicted);
    // Sequential fill + TreePLRU: victim is way 0 holding tag 0.
    EXPECT_EQ(res.evicted_tag, 0u);
    EXPECT_EQ(set.probe(0), kNoWay);
}

TEST(CacheSet, ProbeDoesNotTouchState)
{
    auto set = makeSet();
    for (Addr t = 0; t < 8; ++t)
        access(set, t);
    const auto before = set.repl().stateBits();
    set.probe(3);
    set.probe(999);
    EXPECT_EQ(set.repl().stateBits(), before);
}

TEST(CacheSet, ProbeSkipsAFlushedWayThatHoldsTheTag)
{
    // flushLine leaves tag 0 in the way it invalidates, so a probe for
    // tag 0 meets a matching but invalid way.
    auto set = makeSet();
    for (Addr t = 1; t <= 8; ++t)
        access(set, t);
    ASSERT_TRUE(set.flushLine(8).present); // way 7
    EXPECT_EQ(set.line(7).tag, 0u);
    EXPECT_FALSE(set.line(7).valid);
    EXPECT_EQ(set.probe(0), kNoWay);
    EXPECT_EQ(access(set, 0).way, 7u);
    // Now way 1 holds tag 0 invalid, below the valid copy in way 7.
    ASSERT_TRUE(set.flushLine(2).present);
    EXPECT_EQ(set.line(1).tag, 0u);
    EXPECT_EQ(set.probe(0), 7u);
    const auto hit = access(set, 0);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.way, 7u);
}

TEST(CacheSet, InvalidateRemovesLine)
{
    auto set = makeSet();
    access(set, 7);
    EXPECT_TRUE(set.flushLine(7).present);
    EXPECT_EQ(set.probe(7), kNoWay);
    EXPECT_FALSE(set.flushLine(7).present);
}

TEST(CacheSet, PrefetchFillInstallsAndPromotes)
{
    auto set = makeSet();
    const auto fill = set.prefetchFill(5, 0);
    EXPECT_TRUE(fill.filled);
    const auto again = set.prefetchFill(5, 0);
    EXPECT_TRUE(again.hit);
}

TEST(CacheSet, ResetClearsEverything)
{
    auto set = makeSet();
    for (Addr t = 0; t < 8; ++t)
        access(set, t);
    set.reset();
    EXPECT_EQ(set.occupancy(), 0u);
    for (Addr t = 0; t < 8; ++t)
        EXPECT_EQ(set.probe(t), kNoWay);
}

TEST(CacheSet, CopyIsDeep)
{
    auto set = makeSet();
    access(set, 1);
    CacheSet copy(set);
    access(copy, 2);
    EXPECT_NE(copy.probe(2), kNoWay);
    EXPECT_EQ(set.probe(2), kNoWay);
}

// --------------------------------------------------------- lock bits

TEST(PlCacheSet, LockBitSetAndCleared)
{
    auto set = makeSet(8, ReplPolicyKind::TreePlru, PlMode::Original);
    access(set, 1, LockReq::Lock);
    const std::uint32_t way = set.probe(1);
    ASSERT_NE(way, kNoWay);
    EXPECT_TRUE(set.line(way).locked);
    access(set, 1, LockReq::Unlock);
    EXPECT_FALSE(set.line(way).locked);
}

TEST(PlCacheSet, LockIgnoredWhenDisabled)
{
    auto set = makeSet(8, ReplPolicyKind::TreePlru, PlMode::Disabled);
    access(set, 1, LockReq::Lock);
    const std::uint32_t way = set.probe(1);
    ASSERT_NE(way, kNoWay);
    EXPECT_FALSE(set.line(way).locked);
}

TEST(PlCacheSet, LockedLineSurvivesPressure)
{
    auto set = makeSet(8, ReplPolicyKind::TreePlru, PlMode::Original);
    access(set, 42, LockReq::Lock);
    for (Addr t = 100; t < 140; ++t)
        access(set, t);
    EXPECT_NE(set.probe(42), kNoWay);
}

TEST(PlCacheSet, OriginalBypassesWhenVictimLocked)
{
    auto set = makeSet(2, ReplPolicyKind::TrueLru, PlMode::Original);
    access(set, 1, LockReq::Lock);
    access(set, 2, LockReq::Lock);
    // Both ways locked: an incoming miss is handled uncached.
    const auto res = access(set, 3);
    EXPECT_TRUE(res.bypassed);
    EXPECT_FALSE(res.filled);
    EXPECT_EQ(set.probe(3), kNoWay);
}

TEST(PlCacheSet, OriginalUpdatesLruOnLockedHit)
{
    // The vulnerability: a hit on a locked line still updates the
    // replacement state (white-box behaviour of Fig. 10).
    auto set = makeSet(8, ReplPolicyKind::TreePlru, PlMode::Original);
    for (Addr t = 0; t < 8; ++t)
        access(set, t);
    access(set, 0, LockReq::Lock);
    const auto before = set.repl().stateBits();
    access(set, 0); // locked hit
    // Touching way 0 right after touching it is idempotent; touch way 1
    // then the locked way and expect a state change.
    access(set, 1);
    const auto mid = set.repl().stateBits();
    access(set, 0);
    EXPECT_NE(set.repl().stateBits(), mid);
    (void)before;
}

TEST(PlCacheSet, FixedDoesNotUpdateLruOnLockedHit)
{
    // The paper's fix (blue boxes): locked hits leave the state alone.
    auto set = makeSet(8, ReplPolicyKind::TreePlru, PlMode::FixedLruLock);
    for (Addr t = 0; t < 8; ++t)
        access(set, t);
    access(set, 0, LockReq::Lock);
    access(set, 1);
    const auto mid = set.repl().stateBits();
    access(set, 0); // locked hit: must NOT change the replacement state
    EXPECT_EQ(set.repl().stateBits(), mid);
}

TEST(PlCacheSet, FixedExcludesLockedWaysFromVictimSelection)
{
    auto set = makeSet(2, ReplPolicyKind::TrueLru, PlMode::FixedLruLock);
    access(set, 1, LockReq::Lock);
    access(set, 2);
    // Way with tag 1 is locked; repeated misses must churn the other way.
    for (Addr t = 10; t < 20; ++t) {
        const auto res = access(set, t);
        EXPECT_TRUE(res.filled);
        EXPECT_NE(set.probe(1), kNoWay);
    }
}

// ----------------------------------------------- utag (AMD) behaviour

TEST(CacheSetUtag, MismatchFlaggedAndRetrained)
{
    auto set = makeSet();
    set.access(9, /*utag=*/0xaa, /*check_utag=*/true, LockReq::None);
    // Same tag, different utag: flagged once, then retrained.
    const auto first = set.access(9, 0xbb, true, LockReq::None);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.utag_mismatch);
    const auto second = set.access(9, 0xbb, true, LockReq::None);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.utag_mismatch);
}

TEST(CacheSetUtag, NoCheckNoFlag)
{
    auto set = makeSet();
    set.access(9, 0xaa, false, LockReq::None);
    const auto res = set.access(9, 0xbb, false, LockReq::None);
    EXPECT_FALSE(res.utag_mismatch);
}

/** Property: occupancy never exceeds associativity. */
class SetChurn : public ::testing::TestWithParam<ReplPolicyKind>
{};

TEST_P(SetChurn, OccupancyBounded)
{
    auto set = makeSet(8, GetParam());
    Xoshiro256 rng(5);
    for (int i = 0; i < 5000; ++i) {
        access(set, rng.below(32));
        ASSERT_LE(set.occupancy(), 8u);
    }
    EXPECT_EQ(set.occupancy(), 8u);
}

INSTANTIATE_TEST_SUITE_P(Policies, SetChurn,
                         ::testing::Values(ReplPolicyKind::TrueLru,
                                           ReplPolicyKind::TreePlru,
                                           ReplPolicyKind::BitPlru,
                                           ReplPolicyKind::Fifo,
                                           ReplPolicyKind::Random,
                                           ReplPolicyKind::Srrip));
