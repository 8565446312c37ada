/**
 * @file
 * Tests for the replacement-policy state machines, including exact
 * Tree-PLRU / Bit-PLRU transitions checked against hand-computed vectors
 * (the channel's correctness rests on these).
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/repl_state.hpp"

using namespace lruleak::sim;

// ------------------------------------------------------------- TrueLru

TEST(TrueLru, VictimIsLeastRecentlyUsed)
{
    TrueLruState lru(4);
    // Power-on order: 0 MRU ... 3 LRU.
    EXPECT_EQ(lru.victim(), 3u);
    lru.touch(3);
    EXPECT_EQ(lru.victim(), 2u);
    lru.touch(2);
    lru.touch(1);
    lru.touch(0);
    EXPECT_EQ(lru.victim(), 3u);
}

TEST(TrueLru, AgeTracksRecency)
{
    TrueLruState lru(4);
    lru.touch(2);
    EXPECT_EQ(lru.age[2], 0u);
    lru.touch(1);
    EXPECT_EQ(lru.age[1], 0u);
    EXPECT_EQ(lru.age[2], 1u);
}

TEST(TrueLru, SequentialFillEvictsOldest)
{
    // The property the paper's protocols rely on: access 0..N-1 in
    // order, then the victim is way 0.
    TrueLruState lru(8);
    for (std::uint32_t w = 0; w < 8; ++w)
        lru.touch(w);
    EXPECT_EQ(lru.victim(), 0u);
}

// ------------------------------------------------------------ TreePlru

TEST(TreePlru, RequiresPowerOfTwoWays)
{
    EXPECT_THROW(TreePlruState(6), std::invalid_argument);
    EXPECT_THROW(TreePlruState(1), std::invalid_argument);
    EXPECT_NO_THROW(TreePlruState(2));
    EXPECT_NO_THROW(TreePlruState(16));
}

TEST(TreePlru, HandComputedTransitions4Way)
{
    // 4-way tree: node0 root, node1 = left pair {0,1}, node2 = right
    // pair {2,3}.  Bit semantics: 0 = victim left, 1 = victim right.
    TreePlruState t(4);
    EXPECT_EQ(t.victim(), 0u); // all bits 0 -> leftmost

    t.touch(0); // root -> right (1), node1 -> right (1)
    EXPECT_TRUE(t.nodeBit(0));
    EXPECT_TRUE(t.nodeBit(1));
    EXPECT_EQ(t.victim(), 2u); // right subtree, its bit 0 -> way 2

    t.touch(2); // root -> left (0), node2 -> right (1)
    EXPECT_FALSE(t.nodeBit(0));
    EXPECT_TRUE(t.nodeBit(2));
    EXPECT_EQ(t.victim(), 1u); // left subtree, node1 = 1 -> way 1

    t.touch(1); // root -> right, node1 -> left
    EXPECT_EQ(t.victim(), 3u);

    t.touch(3);
    EXPECT_EQ(t.victim(), 0u);
}

TEST(TreePlru, SequentialFillEvictsWay0)
{
    // Core channel property (Algorithm 1 init with d = 8): after touching
    // 0..7 in order, the victim is way 0.
    TreePlruState t(8);
    for (std::uint32_t w = 0; w < 8; ++w)
        t.touch(w);
    EXPECT_EQ(t.victim(), 0u);
}

TEST(TreePlru, TouchProtectsWay)
{
    TreePlruState t(8);
    for (std::uint32_t w = 0; w < 8; ++w)
        t.touch(w);
    t.touch(0); // the sender's encode access
    EXPECT_NE(t.victim(), 0u); // line 0 is no longer the victim
}

TEST(TreePlru, StateBitsSize)
{
    EXPECT_EQ(TreePlruState(8).stateBits().size(), 7u);
    EXPECT_EQ(TreePlruState(16).stateBits().size(), 15u);
}

TEST(TreePlru, VictimIsDeterministicAndStateless)
{
    TreePlruState t(8);
    t.touch(3);
    t.touch(5);
    const auto v1 = t.victim();
    const auto v2 = t.victim();
    EXPECT_EQ(v1, v2);
}

// ------------------------------------------------------------- BitPlru

TEST(BitPlru, VictimIsLowestClearBit)
{
    BitPlruState b(4);
    EXPECT_EQ(b.victim(), 0u);
    b.touch(0);
    EXPECT_EQ(b.victim(), 1u);
    b.touch(2);
    EXPECT_EQ(b.victim(), 1u);
    b.touch(1);
    EXPECT_EQ(b.victim(), 3u);
}

TEST(BitPlru, SaturationResetsAllButAccessed)
{
    BitPlruState b(4);
    b.touch(0);
    b.touch(1);
    b.touch(2);
    b.touch(3); // saturates: reset, then set way 3
    EXPECT_FALSE(b.mruBit(0));
    EXPECT_FALSE(b.mruBit(1));
    EXPECT_FALSE(b.mruBit(2));
    EXPECT_TRUE(b.mruBit(3));
    EXPECT_EQ(b.victim(), 0u);
}

TEST(BitPlru, FillDoesNotSetMruBit)
{
    // The behaviour Table I implies (see repl_state.hpp).
    BitPlruState b(4);
    b.onFill(2);
    EXPECT_FALSE(b.mruBit(2));
    EXPECT_EQ(b.victim(), 0u);
}

TEST(BitPlru, SequenceOneSteadyStateEvictsLine0)
{
    // Steady state of the paper's Sequence 1: line 0 refills into the
    // same way and is chosen again -- 100% eviction (Table I, >= 8
    // iterations).
    BitPlruState b(8);
    for (std::uint32_t w = 0; w < 8; ++w)
        b.touch(w); // saturate: only bit 7 remains
    const auto victim_for_8 = b.victim();
    EXPECT_EQ(victim_for_8, 0u);
    b.onFill(victim_for_8); // line 8 fills way 0, bit stays clear
    EXPECT_EQ(b.victim(), 0u); // line 0's refill will evict line 8 again
}

// ---------------------------------------------------------------- Fifo

TEST(Fifo, HitsDoNotChangeState)
{
    // The security property the defense study relies on.
    FifoState f(4);
    const auto before = f.stateBits();
    f.touch(0);
    f.touch(3);
    f.touch(2);
    EXPECT_EQ(f.stateBits(), before);
}

TEST(Fifo, EvictsInFillOrder)
{
    FifoState f(4);
    f.onFill(2);
    f.onFill(0);
    f.onFill(3);
    f.onFill(1);
    EXPECT_EQ(f.victim(), 2u);
    f.onFill(2); // refill: becomes newest
    EXPECT_EQ(f.victim(), 0u);
}

// --------------------------------------------------------------- Srrip

TEST(Srrip, InsertAtLongReReference)
{
    SrripState s(4);
    s.onFill(1);
    EXPECT_EQ(s.rrpv[1], SrripState::kInsertRrpv);
}

TEST(Srrip, HitPromotesToZero)
{
    SrripState s(4);
    s.onFill(1);
    s.touch(1);
    EXPECT_EQ(s.rrpv[1], 0);
}

TEST(Srrip, VictimIsFirstMaxRrpv)
{
    SrripState s(4);
    // Power-on: all at max -> way 0.
    EXPECT_EQ(s.victim(), 0u);
    s.onFill(0);
    s.onFill(1);
    s.onFill(2);
    s.onFill(3);
    s.touch(0);
    // Aging must bring 1..3 (rrpv 2) to max before 0 (rrpv 0).
    EXPECT_EQ(s.victim(), 1u);
}

// ---------------------------------------------------------- RandomRepl

TEST(RandomRepl, DeterministicForSeed)
{
    RandomState a(8, 5), b(8, 5);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.selectVictim(), b.selectVictim());
}

TEST(RandomRepl, ResetReplaysStream)
{
    RandomState r(8, 5);
    std::vector<std::uint32_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(r.selectVictim());
    r.reset();
    for (int i = 0; i < 10; ++i)
        ASSERT_EQ(r.selectVictim(), first[static_cast<std::size_t>(i)]);
}

TEST(RandomRepl, CoversAllWays)
{
    RandomState r(8, 5);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.selectVictim());
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomRepl, VictimIsAPureSelectVictimPreview)
{
    // The fixed contract: victim() never advances the stream, and always
    // previews exactly what the next selectVictim() will commit.
    RandomState r(8, 5);
    for (int i = 0; i < 50; ++i) {
        const auto preview = r.victim();
        ASSERT_EQ(r.victim(), preview) << "victim() must not mutate";
        ASSERT_EQ(r.selectVictim(), preview);
    }
}

TEST(Srrip, VictimPreviewDoesNotAge)
{
    // The fixed contract for SRRIP: victim() previews the aging outcome
    // without modifying the RRPVs; selectVictim() commits the aging.
    SrripState s(4);
    for (std::uint32_t w = 0; w < 4; ++w)
        s.onFill(w); // all at RRPV=2: victim selection must age
    s.touch(0);
    const auto before = s.stateBits();
    const auto preview = s.victim();
    EXPECT_EQ(s.stateBits(), before) << "victim() must not mutate";
    EXPECT_EQ(s.selectVictim(), preview);
    EXPECT_NE(s.stateBits(), before) << "selectVictim() ages the RRPVs";
    EXPECT_EQ(s.rrpv[preview], SrripState::kMaxRrpv);
}

// ---------------------------------------------------- factory and names

TEST(Factory, CreatesEveryKind)
{
    for (auto kind : allReplPolicyKinds()) {
        const ReplState state = ReplState::make(kind, 8, 1);
        EXPECT_EQ(state.kind(), kind);
        EXPECT_EQ(state.ways(), 8u);
    }
}

TEST(Factory, NamesRoundTrip)
{
    for (auto kind : allReplPolicyKinds())
        EXPECT_EQ(replPolicyFromName(std::string(replPolicyName(kind))),
                  kind);
    EXPECT_THROW(replPolicyFromName("nonsense"), std::invalid_argument);
}

TEST(VictimUnlocked, SkipsLockedWays)
{
    ReplState lru = ReplState::make(ReplPolicyKind::TrueLru, 4);
    // The victim would be way 3.
    EXPECT_NE(lru.selectVictimUnlocked(0b1000), 3u);
    EXPECT_EQ(lru.selectVictimUnlocked(0b1111), kNoWay);
}

// --------------------------------------- property sweeps over policies

struct PolicyCase
{
    ReplPolicyKind kind;
    std::uint32_t ways;
};

class PolicyProperties : public ::testing::TestWithParam<PolicyCase>
{};

TEST_P(PolicyProperties, VictimAlwaysInRange)
{
    const auto [kind, ways] = GetParam();
    ReplState state = ReplState::make(kind, ways, 3);
    Xoshiro256 rng(99);
    for (int i = 0; i < 2000; ++i) {
        if (rng.chance(0.5))
            state.touch(static_cast<std::uint32_t>(rng.below(ways)));
        else
            state.onFill(static_cast<std::uint32_t>(rng.below(ways)));
        ASSERT_LT(state.victim(), ways);
    }
}

TEST_P(PolicyProperties, CloneIsIndependentCopy)
{
    const auto [kind, ways] = GetParam();
    ReplState state = ReplState::make(kind, ways, 3);
    state.touch(1 % ways);
    ReplState copy = state;
    EXPECT_EQ(copy, state);
    copy.touch((ways - 1) % ways);
    copy.selectVictim();
    // The original must be unaffected by mutations of the copy.
    ReplState again = ReplState::make(kind, ways, 3);
    again.touch(1 % ways);
    EXPECT_EQ(state, again);
}

TEST_P(PolicyProperties, ResetRestoresPowerOnVictim)
{
    const auto [kind, ways] = GetParam();
    ReplState state = ReplState::make(kind, ways, 3);
    const ReplState fresh = ReplState::make(kind, ways, 3);
    for (std::uint32_t w = 0; w < ways; ++w)
        state.touch(w);
    state.reset();
    EXPECT_EQ(state.victim(), fresh.victim());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyProperties,
    ::testing::Values(PolicyCase{ReplPolicyKind::TrueLru, 4},
                      PolicyCase{ReplPolicyKind::TrueLru, 8},
                      PolicyCase{ReplPolicyKind::TreePlru, 4},
                      PolicyCase{ReplPolicyKind::TreePlru, 8},
                      PolicyCase{ReplPolicyKind::TreePlru, 16},
                      PolicyCase{ReplPolicyKind::BitPlru, 4},
                      PolicyCase{ReplPolicyKind::BitPlru, 8},
                      PolicyCase{ReplPolicyKind::Fifo, 8},
                      PolicyCase{ReplPolicyKind::Random, 8},
                      PolicyCase{ReplPolicyKind::Srrip, 8}));

/**
 * Cross-policy invariant of the paper's Section IV-C: the receiver
 * accesses lines 0..7 in order, but the lines sit in *scrambled ways*
 * (wherever earlier fills placed them).  True LRU still always evicts
 * the first-touched way; Tree-PLRU does not — that way-permutation
 * sensitivity is exactly what Table I quantifies.
 */
TEST(PolicyContrast, TrueLruGuaranteesPlrusDoNot)
{
    Xoshiro256 rng(4242);
    int tree_mismatch = 0;
    for (int trial = 0; trial < 200; ++trial) {
        TrueLruState lru(8);
        TreePlruState tree(8);
        // Random permutation: way holding "line i".
        std::uint32_t perm[8] = {0, 1, 2, 3, 4, 5, 6, 7};
        for (std::uint32_t i = 8; i > 1; --i)
            std::swap(perm[i - 1], perm[rng.below(i)]);
        // Sequence 1 body: touch lines 0..7 in order.
        for (std::uint32_t line = 0; line < 8; ++line) {
            lru.touch(perm[line]);
            tree.touch(perm[line]);
        }
        // True LRU: the victim is always line 0's way.
        ASSERT_EQ(lru.victim(), perm[0]);
        tree_mismatch += tree.victim() != perm[0] ? 1 : 0;
    }
    // Tree-PLRU sometimes picks someone else (that is the whole point of
    // Table I); Table I suggests roughly half the time.
    EXPECT_GT(tree_mismatch, 40);
    EXPECT_LT(tree_mismatch, 160);
}
