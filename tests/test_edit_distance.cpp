/**
 * @file
 * Tests for the edit distance used to score channel transmissions
 * (flips + insertions + losses), with the Wagner-Fischer DP as the
 * oracle of the bit-parallel implementation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "channel/bitstring.hpp"
#include "channel/decoder.hpp"
#include "channel/edit_distance.hpp"
#include "sim/random.hpp"

using namespace lruleak::channel;

namespace {

Bits
b(const std::string &s)
{
    Bits out;
    for (char c : s)
        out.push_back(c == '1' ? 1 : 0);
    return out;
}

/** The two-row Wagner-Fischer DP: one cell at a time. */
std::size_t
dpEditDistance(const Bits &a, const Bits &b)
{
    std::vector<std::size_t> prev(b.size() + 1), curr(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        curr[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j)
            curr[j] = std::min({prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1),
                                prev[j] + 1, curr[j - 1] + 1});
        std::swap(prev, curr);
    }
    return prev[b.size()];
}

/** @p n symbols below @p alphabet. */
Bits
randomSymbols(std::size_t n, std::uint64_t alphabet,
              lruleak::sim::Xoshiro256 &rng)
{
    Bits out(n);
    for (auto &c : out)
        c = static_cast<std::uint8_t>(rng.below(alphabet));
    return out;
}

} // namespace

TEST(EditDistance, MatchesDpOracleOnRandomPairs)
{
    // Lengths 0-2000, unequal more often than not, over bits, bits with
    // erasures and the whole byte alphabet.  Half the pairs are a
    // string and a few-edit mutant of it, so small distances (the
    // channel's usual case) are covered as well as random ones.
    lruleak::sim::Xoshiro256 rng(0xed17);
    const std::uint64_t alphabets[] = {2, kErasureSymbol + 1, 256};
    for (int i = 0; i < 120; ++i) {
        const std::uint64_t alphabet = alphabets[i % 3];
        const Bits x = randomSymbols(rng.below(2001), alphabet, rng);
        Bits y;
        if (i % 2 == 0) {
            y = randomSymbols(rng.below(2001), alphabet, rng);
        } else {
            y = x;
            for (std::uint64_t e = rng.below(12); e > 0; --e) {
                const std::size_t pos = rng.below(y.size() + 1);
                const auto c = static_cast<std::uint8_t>(rng.below(alphabet));
                switch (rng.below(3)) {
                  case 0:
                    y.insert(y.begin() + static_cast<std::ptrdiff_t>(pos), c);
                    break;
                  case 1:
                    if (pos < y.size())
                        y.erase(y.begin() + static_cast<std::ptrdiff_t>(pos));
                    break;
                  default:
                    if (pos < y.size())
                        y[pos] = c;
                }
            }
        }
        ASSERT_EQ(editDistance(x, y), dpEditDistance(x, y))
            << "pair " << i << ": lengths " << x.size() << ", " << y.size();
    }
}

TEST(EditDistance, MatchesDpOracleAtBlockEdges)
{
    // Pattern lengths on each side of a 64-bit block boundary.
    lruleak::sim::Xoshiro256 rng(0xb10c);
    for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u,
                                191u, 192u, 193u}) {
        for (const std::size_t m : {n - 1, n, n + 1, 3 * n}) {
            const Bits x = randomSymbols(n, kErasureSymbol + 1, rng);
            const Bits y = randomSymbols(m, kErasureSymbol + 1, rng);
            ASSERT_EQ(editDistance(x, y), dpEditDistance(x, y))
                << "lengths " << n << ", " << m;
            ASSERT_EQ(editDistance(x, x), 0u) << "length " << n;
        }
    }
}

TEST(EditDistance, IdenticalStringsZero)
{
    EXPECT_EQ(editDistance(b("10110"), b("10110")), 0u);
    EXPECT_EQ(editDistance({}, {}), 0u);
}

TEST(EditDistance, EmptyVersusNonEmpty)
{
    EXPECT_EQ(editDistance({}, b("1010")), 4u);
    EXPECT_EQ(editDistance(b("1010"), {}), 4u);
}

TEST(EditDistance, SingleFlip)
{
    EXPECT_EQ(editDistance(b("10110"), b("10010")), 1u);
}

TEST(EditDistance, SingleLoss)
{
    EXPECT_EQ(editDistance(b("10110"), b("1010")), 1u);
}

TEST(EditDistance, SingleInsertion)
{
    EXPECT_EQ(editDistance(b("10110"), b("101100")), 1u);
}

TEST(EditDistance, MixedErrors)
{
    // A one-position shift costs one insertion plus one deletion.
    EXPECT_EQ(editDistance(b("101010"), b("010101")), 2u);
}

TEST(EditDistance, Symmetric)
{
    lruleak::sim::Xoshiro256 rng(4);
    for (int i = 0; i < 50; ++i) {
        const auto x = randomBits(20 + rng.below(20), rng());
        const auto y = randomBits(20 + rng.below(20), rng());
        EXPECT_EQ(editDistance(x, y), editDistance(y, x));
    }
}

TEST(EditDistance, BoundedByLongerLength)
{
    lruleak::sim::Xoshiro256 rng(5);
    for (int i = 0; i < 50; ++i) {
        const auto x = randomBits(rng.below(40), rng());
        const auto y = randomBits(rng.below(40), rng());
        EXPECT_LE(editDistance(x, y), std::max(x.size(), y.size()));
        EXPECT_GE(editDistance(x, y),
                  x.size() > y.size() ? x.size() - y.size()
                                      : y.size() - x.size());
    }
}

TEST(EditDistance, TriangleInequality)
{
    lruleak::sim::Xoshiro256 rng(6);
    for (int i = 0; i < 30; ++i) {
        const auto x = randomBits(15 + rng.below(10), rng());
        const auto y = randomBits(15 + rng.below(10), rng());
        const auto z = randomBits(15 + rng.below(10), rng());
        EXPECT_LE(editDistance(x, z),
                  editDistance(x, y) + editDistance(y, z));
    }
}

TEST(EditDistance, KnownPerturbationsScoreExactly)
{
    // Construct a received string with exactly f flips at distinct
    // positions; the distance must be <= f (and usually == f).
    lruleak::sim::Xoshiro256 rng(7);
    const auto sent = randomBits(128, 99);
    Bits recv = sent;
    recv[3] ^= 1;
    recv[64] ^= 1;
    recv[100] ^= 1;
    EXPECT_EQ(editDistance(sent, recv), 3u);
}

TEST(ErrorRate, NormalisedBySentLength)
{
    const auto sent = b("11110000");
    auto recv = sent;
    recv[0] ^= 1;
    recv[4] ^= 1;
    EXPECT_DOUBLE_EQ(editErrorRate(sent, recv), 0.25);
    EXPECT_DOUBLE_EQ(editErrorRate({}, recv), 0.0);
}

TEST(ErrorRate, TotalLossIsOne)
{
    const auto sent = b("1111");
    EXPECT_DOUBLE_EQ(editErrorRate(sent, {}), 1.0);
}
