/**
 * @file
 * Equivalence tests for the value-semantic replacement core.
 *
 * The reference models (reference_policies.hpp) are independent
 * list- and vector-based implementations, so they serve as the oracle:
 * ReplState must match them state-bit-for-state-bit and victim-for-
 * victim on randomized operation traces, for all six policies.  The
 * CacheSet replay kernel is checked against the per-access path the
 * same way.
 */

#include <gtest/gtest.h>

#include <string>

#include "reference_policies.hpp"
#include "sim/cache_set.hpp"
#include "sim/repl_state.hpp"

using namespace lruleak::sim;
namespace reference = lruleak::reference;

namespace {

struct StateCase
{
    ReplPolicyKind kind;
    std::uint32_t ways;
};

class ReplStateEquivalence : public ::testing::TestWithParam<StateCase>
{};

} // namespace

// "Legacy" in the name is historical: the oracle is the reference model.
TEST_P(ReplStateEquivalence, MatchesLegacyOnRandomizedTraces)
{
    const auto [kind, ways] = GetParam();
    constexpr std::uint64_t kSeed = 77;

    ReplState state = ReplState::make(kind, ways, kSeed);
    auto model = reference::makePolicy(kind, ways, kSeed);

    ASSERT_EQ(state.kind(), kind);
    ASSERT_EQ(state.ways(), ways);
    ASSERT_EQ(state.stateBits(), model->stateBits())
        << "power-on state differs";

    Xoshiro256 rng(123456);
    for (int op = 0; op < 5000; ++op) {
        const auto way = static_cast<std::uint32_t>(rng.below(ways));
        switch (rng.below(100)) {
          case 0: // occasional reset
            state.reset();
            model->reset();
            break;
          case 1:
          case 2: // victim commit (the mutating query)
            ASSERT_EQ(state.selectVictim(), model->selectVictim())
                << "op " << op;
            break;
          default:
            if (rng.chance(0.5)) {
                state.touch(way);
                model->touch(way);
            } else {
                state.onFill(way);
                model->onFill(way);
            }
            break;
        }
        ASSERT_EQ(state.stateBits(), model->stateBits())
            << replPolicyName(kind) << " diverged at op " << op;
        ASSERT_EQ(state.victim(), model->victim())
            << replPolicyName(kind) << " victim preview at op " << op;
    }
}

TEST_P(ReplStateEquivalence, VictimPreviewIsPure)
{
    const auto [kind, ways] = GetParam();
    ReplState state = ReplState::make(kind, ways, 5);
    Xoshiro256 rng(42);
    for (int op = 0; op < 200; ++op) {
        state.touch(static_cast<std::uint32_t>(rng.below(ways)));
        const ReplState before = state;
        const auto preview = state.victim();
        EXPECT_EQ(state, before) << "victim() must not mutate";
        // The commit must honour the preview.
        EXPECT_EQ(state.selectVictim(), preview);
    }
}

TEST_P(ReplStateEquivalence, AdapterRoundTripsThroughState)
{
    // A ReplState loaded from a mid-stream reference state (not evolved
    // from power-on) must behave exactly like the model it came from.
    const auto [kind, ways] = GetParam();
    auto model = reference::makePolicy(kind, ways, 9);
    Xoshiro256 rng(7);
    for (int op = 0; op < 100; ++op) {
        const auto way = static_cast<std::uint32_t>(rng.below(ways));
        if (rng.chance(0.5))
            model->touch(way);
        else
            model->onFill(way);
    }

    ReplState state = model->toState();
    EXPECT_EQ(state.kind(), kind);
    EXPECT_EQ(state.stateBits(), model->stateBits());
    EXPECT_EQ(state.victim(), model->victim());

    // Both sides must continue in lockstep after the snapshot.
    for (int op = 0; op < 200; ++op) {
        const auto way = static_cast<std::uint32_t>(rng.below(ways));
        state.touch(way);
        model->touch(way);
        ASSERT_EQ(state.stateBits(), model->stateBits());
        ASSERT_EQ(state.selectVictim(), model->selectVictim());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ReplStateEquivalence,
    ::testing::Values(StateCase{ReplPolicyKind::TrueLru, 4},
                      StateCase{ReplPolicyKind::TrueLru, 8},
                      StateCase{ReplPolicyKind::TreePlru, 4},
                      StateCase{ReplPolicyKind::TreePlru, 8},
                      StateCase{ReplPolicyKind::TreePlru, 16},
                      StateCase{ReplPolicyKind::BitPlru, 8},
                      StateCase{ReplPolicyKind::Fifo, 8},
                      StateCase{ReplPolicyKind::Random, 8},
                      StateCase{ReplPolicyKind::Srrip, 8}));

TEST(ReplState, ValueSemantics)
{
    ReplState a = ReplState::make(ReplPolicyKind::TreePlru, 8);
    a.touch(3);
    ReplState b = a; // copy
    EXPECT_EQ(a, b);
    b.touch(5);
    EXPECT_NE(a, b) << "copies must be independent";
    b = a; // copy-assign
    EXPECT_EQ(a, b);
}

TEST(ReplState, RejectsUnsupportedWays)
{
    EXPECT_THROW(ReplState::make(ReplPolicyKind::TrueLru, 0),
                 std::invalid_argument);
    EXPECT_THROW(ReplState::make(ReplPolicyKind::TrueLru, kMaxWays + 1),
                 std::invalid_argument);
    EXPECT_THROW(ReplState::make(ReplPolicyKind::TreePlru, 6),
                 std::invalid_argument);
    EXPECT_NO_THROW(ReplState::make(ReplPolicyKind::TrueLru, kMaxWays));
}

TEST(ReplState, WhiteBoxAccess)
{
    ReplState state = ReplState::make(ReplPolicyKind::TreePlru, 8);
    auto *tree = state.get<TreePlruState>();
    ASSERT_NE(tree, nullptr);
    state.touch(0);
    EXPECT_TRUE(tree->nodeBit(0));
    EXPECT_EQ(state.get<TrueLruState>(), nullptr);
}

// -------------------------------------------------------- replay kernel

namespace {

/** Random tag stream over a small space: mixes hits and misses. */
std::vector<Addr>
randomTags(std::size_t n, std::uint64_t seed)
{
    std::vector<Addr> tags(n);
    Xoshiro256 rng(seed);
    for (auto &t : tags)
        t = rng.below(20);
    return tags;
}

/** Tally one per-access outcome the way replayBatch counts it. */
void
countAccess(SetBatchStats &t, const SetAccessResult &r)
{
    ++t.accesses;
    t.hits += r.hit ? 1 : 0;
    t.fills += r.filled ? 1 : 0;
    t.evictions += r.evicted ? 1 : 0;
    t.dirty_writebacks += r.dirty_writeback ? 1 : 0;
}

class BatchEquivalence
    : public ::testing::TestWithParam<StateCase>
{};

} // namespace

TEST_P(BatchEquivalence, ReplayBatchMatchesPerAccessPath)
{
    const auto [kind, ways] = GetParam();
    CacheSet a(ways, ReplState::make(kind, ways, 3));
    CacheSet b(ways, ReplState::make(kind, ways, 3));

    const auto tags = randomTags(2000, 100);
    SetBatchStats want;
    for (const Addr tag : tags)
        countAccess(want, a.access(tag, 0, false, LockReq::None));
    EXPECT_EQ(b.replayBatch(tags), want);
    EXPECT_TRUE(a == b) << "set state diverged";
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, BatchEquivalence,
    ::testing::Values(StateCase{ReplPolicyKind::TrueLru, 8},
                      StateCase{ReplPolicyKind::TreePlru, 8},
                      StateCase{ReplPolicyKind::TreePlru, 16},
                      StateCase{ReplPolicyKind::BitPlru, 8},
                      StateCase{ReplPolicyKind::Fifo, 8},
                      StateCase{ReplPolicyKind::Random, 8},
                      StateCase{ReplPolicyKind::Srrip, 8}));

/**
 * With lock bits in play (a PL mode) replayBatch leaves the specialised
 * loop for the per-access path.  On sets holding locked lines it must
 * still tally and leave the set exactly as per-access loads do,
 * including the misses it serves uncached.
 */
TEST(ReplayBatchPlFallback, MatchesPerAccessPathOnLockedSets)
{
    constexpr std::uint32_t kWays = 8;
    for (const PlMode mode : {PlMode::Original, PlMode::FixedLruLock}) {
        for (const ReplPolicyKind kind : allReplPolicyKinds()) {
            for (const std::uint32_t locked : {3u, kWays}) {
                SCOPED_TRACE(std::string(replPolicyName(kind)) + " mode " +
                             std::to_string(static_cast<int>(mode)) +
                             " locked " + std::to_string(locked));
                CacheSet a(kWays, ReplState::make(kind, kWays, 5), mode);
                for (Addr t = 0; t < locked; ++t)
                    a.access(100 + t, 0, false, LockReq::Lock);
                CacheSet b = a;

                const auto tags = randomTags(2000, 101);
                SetBatchStats want;
                std::uint64_t bypasses = 0;
                for (const Addr tag : tags) {
                    const auto r = a.access(tag, 0, false, LockReq::None);
                    countAccess(want, r);
                    bypasses += r.bypassed ? 1 : 0;
                }
                EXPECT_EQ(b.replayBatch(tags), want);
                EXPECT_TRUE(a == b) << "set state diverged";
                // Only a locked victim (Original) or a set locked whole
                // serves a miss uncached; locked lines never leave.
                EXPECT_EQ(bypasses > 0,
                          mode == PlMode::Original || locked == kWays);
                for (Addr t = 0; t < locked; ++t)
                    EXPECT_NE(b.probe(100 + t), kNoWay) << t;
            }
        }
    }
}

TEST(CacheSetValueSemantics, CopyAssignmentIsDeepAndIndependent)
{
    CacheSet a(8, ReplState::make(ReplPolicyKind::TreePlru, 8));
    for (Addr t = 0; t < 8; ++t)
        a.access(t, 0, false, LockReq::None);

    CacheSet b(8, ReplState::make(ReplPolicyKind::TreePlru, 8));
    b = a; // the seed deleted this operator
    EXPECT_EQ(b.repl(), a.repl());
    EXPECT_EQ(b.occupancy(), a.occupancy());

    // Mutating the copy must not leak back into the original.
    b.access(99, 0, false, LockReq::None);
    EXPECT_NE(b.probe(99), kNoWay);
    EXPECT_EQ(a.probe(99), kNoWay);
    EXPECT_NE(b.repl(), a.repl());
}
