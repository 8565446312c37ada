/**
 * @file
 * Set-level tests for the Section IX-B secure-cache modes of sim::Cache:
 * DAWG partitioning stops the LRU channel; the Random Fill cache does
 * not (the paper's explicit claim — hits still update the replacement
 * state).  The end-to-end Session versions live in test_covert_channel.
 */

#include <gtest/gtest.h>

#include "sim/cache.hpp"

using namespace lruleak::sim;

namespace {

// DAWG places thread t in partition t % secure_domains.
constexpr ThreadId kVictim = 0;
constexpr ThreadId kAttacker = 1;

constexpr Addr kVictimBase = 0x1000'0000'0000ULL;
constexpr Addr kAttackerBase = 0x2000'0000'0000ULL;

/** An Intel L1D in secure mode @p mode. */
Cache
secureL1(SecureMode mode, std::uint32_t domains = 2, std::uint64_t seed = 0,
         std::uint32_t fill_window = 64)
{
    CacheConfig config = CacheConfig::intelL1d();
    config.secure = mode;
    config.secure_domains = domains;
    config.seed = seed;
    config.fill_window = fill_window;
    return Cache(config);
}

MemRef
line(const AddressLayout &layout, std::uint32_t set, std::uint32_t i,
     Addr base, ThreadId thread = kVictim)
{
    return MemRef::load(lineInSet(layout, set, i, base), thread);
}

/** Replacement-state bytes of the two-domain DAWG partition of
 *  (@p set, @p thread): storage set set * domains + thread % domains. */
std::vector<std::uint8_t>
dawgState(const Cache &cache, std::uint32_t set, ThreadId thread)
{
    return cache.cacheSet(set * 2 + thread % 2).repl().stateBits();
}

/** Miss on neighbours of @p want until Random Fill installs it. */
void
plant(Cache &cache, const MemRef &want)
{
    for (int tries = 0; tries < 4096 && !cache.contains(want); ++tries)
        cache.access(MemRef::load(want.vaddr + 64 * ((tries % 16) + 1)));
}

std::uint32_t
totalOccupancy(const Cache &cache)
{
    std::uint32_t lines = 0;
    for (std::uint32_t s = 0; s < cache.storageSets(); ++s)
        lines += cache.cacheSet(s).occupancy();
    return lines;
}

} // namespace

TEST(Dawg, RejectsBadPartitioning)
{
    EXPECT_THROW(secureL1(SecureMode::Dawg, 3), std::invalid_argument);
    EXPECT_NO_THROW(secureL1(SecureMode::Dawg, 2));
    EXPECT_NO_THROW(secureL1(SecureMode::Dawg, 4));
}

TEST(Dawg, DomainsDoNotShareLines)
{
    Cache cache = secureL1(SecureMode::Dawg);
    const auto ref = line(cache.layout(), 3, 0, kVictimBase);
    cache.access(ref);
    EXPECT_TRUE(cache.contains(ref));
    // The same physical line is NOT visible from the other domain.
    MemRef from_attacker = ref;
    from_attacker.thread = kAttacker;
    EXPECT_FALSE(cache.contains(from_attacker));
}

TEST(Dawg, DomainFillsCannotEvictOtherDomain)
{
    Cache cache = secureL1(SecureMode::Dawg);
    const auto victim_line = line(cache.layout(), 5, 0, kVictimBase);
    cache.access(victim_line);
    // The attacker thrashes the same set hard.
    for (std::uint32_t i = 0; i < 64; ++i)
        cache.access(line(cache.layout(), 5, i, kAttackerBase, kAttacker));
    EXPECT_TRUE(cache.contains(victim_line));
}

TEST(Dawg, ReplacementStateIsPartitioned)
{
    // The property the paper singles DAWG out for: the victim's
    // accesses cannot move the attacker's replacement state.
    Cache cache = secureL1(SecureMode::Dawg);
    for (std::uint32_t i = 0; i < 4; ++i)
        cache.access(line(cache.layout(), 9, i, kAttackerBase, kAttacker));
    const auto before = dawgState(cache, 9, kAttacker);

    for (std::uint32_t i = 0; i < 16; ++i)
        cache.access(line(cache.layout(), 9, i, kVictimBase));

    EXPECT_EQ(dawgState(cache, 9, kAttacker), before);
}

TEST(Dawg, LruChannelProtocolIsDead)
{
    // Set-level Algorithm 2 mechanics: with and without the sender's
    // touch, the attacker's eviction outcome must be identical.
    auto line0Survives = [](bool sender_touches) {
        Cache cache = secureL1(SecureMode::Dawg);
        const AddressLayout &layout = cache.layout();
        const auto sender_line = line(layout, 7, 0, kVictimBase);
        cache.access(sender_line);
        // Attacker init: 4 of its own lines.
        for (std::uint32_t i = 0; i < 4; ++i)
            cache.access(line(layout, 7, i, kAttackerBase, kAttacker));
        if (sender_touches)
            cache.access(sender_line);
        // Attacker decode: 4 more lines (forces replacements in its
        // 4-way partition), then check its line 0.
        for (std::uint32_t i = 4; i < 8; ++i)
            cache.access(line(layout, 7, i, kAttackerBase, kAttacker));
        return cache.contains(line(layout, 7, 0, kAttackerBase, kAttacker));
    };
    EXPECT_EQ(line0Survives(true), line0Survives(false))
        << "sender activity must be invisible across domains";
}

TEST(RandomFill, MissDoesNotInstallDemandLine)
{
    Cache cache = secureL1(SecureMode::RandomFill);
    const auto ref = line(cache.layout(), 11, 0, kVictimBase);
    const auto res = cache.access(ref);
    EXPECT_FALSE(res.hit);
    EXPECT_FALSE(cache.contains(ref)) << "demand line served uncached";
}

TEST(RandomFill, MissFillsSomeNeighbour)
{
    Cache cache = secureL1(SecureMode::RandomFill, 2, 7);
    for (std::uint32_t i = 0; i < 32; ++i)
        cache.access(line(cache.layout(), 11, i, kVictimBase));
    EXPECT_GT(totalOccupancy(cache), 24u)
        << "misses must fill random neighbour lines";
}

TEST(RandomFill, HitUpdatesReplacementState)
{
    // The paper's point: "if the cache line is already in the cache, on
    // a cache hit, the replacement state will be updated, and the LRU
    // channel could still work."
    Cache cache = secureL1(SecureMode::RandomFill);
    const auto target = line(cache.layout(), 13, 0, kVictimBase);
    plant(cache, target);
    ASSERT_TRUE(cache.contains(target)) << "random fill should land "
                                           "the target eventually";

    // Land a second distinct line in the same set so the two touches
    // must flip their lowest-common-ancestor tree bit.
    const auto other = line(cache.layout(), 13, 1, kVictimBase);
    plant(cache, other);
    ASSERT_TRUE(cache.contains(other));

    const auto set = cache.layout().setIndex(target.vaddr);
    cache.access(other); // HIT on the other line
    const auto before = cache.cacheSet(set).repl();
    cache.access(target); // HIT on the target
    EXPECT_NE(cache.cacheSet(set).repl(), before)
        << "a hit must move the LRU state -> the channel survives";
}

TEST(RandomFill, SenderHitStillInfluencesVictimChoice)
{
    // End-to-end set-level statement of the paper's claim: with the
    // sender's line resident, its hit changes the replacement state the
    // next fill's victim choice reads — exactly as in the unprotected
    // cache.
    auto run = [](bool sender_touches) {
        // A 16-line window confines the fills landing in set 13 to lines
        // 0..7, so planting one line never evicts another.
        Cache cache = secureL1(SecureMode::RandomFill, 2, 11, 16);
        const AddressLayout &layout = cache.layout();
        const std::uint32_t set = 13;
        // Seed the set with 8 known lines by neighbour fills.
        for (std::uint32_t i = 0; i < 8; ++i)
            plant(cache, line(layout, set, i, kVictimBase));
        EXPECT_EQ(cache.cacheSet(set).occupancy(), 8u);
        // Touch lines 0..7 in order (sequential init).
        for (std::uint32_t i = 0; i < 8; ++i)
            cache.access(line(layout, set, i, kVictimBase));
        if (sender_touches)
            cache.access(line(layout, set, 0, kVictimBase)); // the hit
        return cache.cacheSet(set).repl();
    };
    EXPECT_NE(run(true), run(false))
        << "the sender's hit must leave a visible LRU-state difference";
}
