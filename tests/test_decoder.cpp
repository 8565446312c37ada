/**
 * @file
 * Tests for the trace decoders: thresholding, bit windows, moving
 * average, best-fit period, and the run-length noise filter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "channel/decoder.hpp"

using namespace lruleak::channel;

namespace {

std::vector<Sample>
samplesFrom(const std::vector<std::uint32_t> &latencies,
            std::uint64_t t0 = 0, std::uint64_t dt = 100)
{
    std::vector<Sample> out;
    for (std::size_t i = 0; i < latencies.size(); ++i)
        out.push_back(Sample{t0 + i * dt, latencies[i],
                             lruleak::sim::HitLevel::L1});
    return out;
}

} // namespace

TEST(Threshold, Polarity)
{
    const auto samples = samplesFrom({30, 50, 30, 50});
    EXPECT_EQ(bitsToString(thresholdSamples(samples, 40, false)), "1010");
    EXPECT_EQ(bitsToString(thresholdSamples(samples, 40, true)), "0101");
}

TEST(Threshold, BoundaryIsHit)
{
    const auto samples = samplesFrom({40});
    EXPECT_EQ(thresholdSamples(samples, 40, false)[0], 1);
}

TEST(WindowDecode, MajorityVotePerBit)
{
    // Bit period 1000, samples every 100: 10 samples per bit.
    std::vector<std::uint32_t> lat;
    for (int i = 0; i < 10; ++i)
        lat.push_back(30); // bit 1 (hit)
    for (int i = 0; i < 10; ++i)
        lat.push_back(50); // bit 0
    lat[12] = 30; // minority noise in bit 0's window
    const auto bits = windowDecode(samplesFrom(lat), 40, false, 0, 1000, 2);
    EXPECT_EQ(bitsToString(bits), "10");
}

TEST(WindowDecode, LostWindowsAreDropped)
{
    // Three bit periods but samples only in the first and third.
    std::vector<Sample> samples;
    samples.push_back(Sample{100, 30, lruleak::sim::HitLevel::L1});
    samples.push_back(Sample{2100, 30, lruleak::sim::HitLevel::L1});
    const auto bits = windowDecode(samples, 40, false, 0, 1000, 3);
    EXPECT_EQ(bits.size(), 2u); // middle bit lost
}

TEST(WindowDecode, SamplesBeforeStartIgnored)
{
    std::vector<Sample> samples;
    samples.push_back(Sample{50, 30, lruleak::sim::HitLevel::L1});
    samples.push_back(Sample{1500, 50, lruleak::sim::HitLevel::L1});
    const auto bits = windowDecode(samples, 40, false, 1000, 1000, 1);
    ASSERT_EQ(bits.size(), 1u);
    EXPECT_EQ(bits[0], 0);
}

TEST(WindowDecode, EmptyInputs)
{
    EXPECT_TRUE(windowDecode({}, 40, false, 0, 1000, 5).empty());
    EXPECT_TRUE(windowDecode(samplesFrom({30}), 40, false, 0, 0, 5).empty());
    EXPECT_TRUE(windowDecode(samplesFrom({30}), 40, false, 0, 100, 0).empty());
}

TEST(Decoder, WindowDecodeIsWindowSymbolsWithoutErasures)
{
    // Seeded random traces over every edge of the windowing: samples
    // before t0 and past the last window, empty windows, ts = 0 and
    // nbits = 0.
    std::mt19937_64 rng(20241018);
    std::size_t with_erasures = 0, before_t0 = 0, past_end = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const std::uint64_t t0 = rng() % 4000;
        const std::uint64_t ts = trial % 25 == 0 ? 0 : 1 + rng() % 1500;
        const std::size_t nbits = trial % 20 == 1 ? 0 : rng() % 24;
        const std::uint64_t gap = 2 * std::max<std::uint64_t>(ts, 50);
        std::vector<Sample> samples;
        std::uint64_t tsc = rng() % (t0 + 1);
        for (std::size_t i = rng() % 64; i > 0; --i) {
            samples.push_back(
                Sample{tsc, static_cast<std::uint32_t>(20 + rng() % 40),
                       lruleak::sim::HitLevel::L1});
            before_t0 += tsc < t0 ? 1 : 0;
            past_end += ts && tsc >= t0 + ts * nbits ? 1 : 0;
            tsc += rng() % gap; // gaps past ts leave windows empty
        }
        const bool invert = (rng() & 1) != 0;

        const Bits symbols =
            windowSymbols(samples, 40, invert, t0, ts, nbits);
        with_erasures += std::count(symbols.begin(), symbols.end(),
                                    kErasureSymbol) > 0 ? 1 : 0;
        Bits expected = symbols;
        std::erase(expected, kErasureSymbol);
        EXPECT_EQ(windowDecode(samples, 40, invert, t0, ts, nbits),
                  expected)
            << "trial " << trial;
    }
    // The traces really reach the edges.
    EXPECT_GT(with_erasures, 0u);
    EXPECT_GT(before_t0, 0u);
    EXPECT_GT(past_end, 0u);
}

TEST(MovingAverage, SmoothsSeries)
{
    const std::vector<double> series{0, 0, 0, 10, 0, 0, 0};
    const auto smooth = movingAverage(series, 3);
    ASSERT_EQ(smooth.size(), series.size());
    EXPECT_NEAR(smooth[3], 10.0 / 3.0, 1e-9);
    EXPECT_NEAR(smooth[2], 10.0 / 3.0, 1e-9);
    EXPECT_NEAR(smooth[0], 0.0, 1e-9);
}

TEST(MovingAverage, WindowOnePassThrough)
{
    const std::vector<double> series{1, 2, 3};
    EXPECT_EQ(movingAverage(series, 1), series);
    EXPECT_EQ(movingAverage(series, 0), series);
}

TEST(BestPeriod, RecoversSquareWave)
{
    // Alternating blocks of 97 low / 97 high, as in the paper's AMD
    // trace analysis (Fig. 7: best fit period 97).
    std::vector<double> series;
    for (int block = 0; block < 14; ++block)
        for (int i = 0; i < 97; ++i)
            series.push_back(block % 2 ? 120.0 : 80.0);
    EXPECT_EQ(bestAlternatingPeriod(series, 50, 150), 97u);
}

TEST(BestPeriod, NoisyWaveStillClose)
{
    lruleak::sim::Xoshiro256 rng(11);
    std::vector<double> series;
    for (int block = 0; block < 20; ++block)
        for (int i = 0; i < 85; ++i)
            series.push_back((block % 2 ? 120.0 : 80.0) +
                             rng.gaussian() * 10.0);
    const auto p = bestAlternatingPeriod(series, 50, 120);
    EXPECT_NEAR(static_cast<double>(p), 85.0, 3.0);
}

TEST(BestPeriod, DegenerateInputs)
{
    EXPECT_EQ(bestAlternatingPeriod({}, 10, 20), 10u);
    EXPECT_EQ(bestAlternatingPeriod({1.0, 2.0}, 0, 5), 0u);
}

TEST(TrimRuns, RemovesLongSaturatedStretches)
{
    // 5 good alternating samples, then 20 stuck-at-one samples (noise
    // burst from another process), then 5 good ones.
    std::vector<std::uint32_t> lat;
    for (int i = 0; i < 6; ++i)
        lat.push_back(i % 2 ? 30 : 50);
    for (int i = 0; i < 20; ++i)
        lat.push_back(30);
    for (int i = 0; i < 6; ++i)
        lat.push_back(i % 2 ? 30 : 50);
    const auto samples = samplesFrom(lat);
    const auto trimmed = trimSaturatedRuns(samples, 40, false, 8);
    EXPECT_LT(trimmed.size(), samples.size());
    // The stray '1' adjoining the burst is trimmed with it: 11 remain.
    EXPECT_GE(trimmed.size(), 10u);
}

TEST(TrimRuns, ShortRunsKept)
{
    const auto samples = samplesFrom({30, 30, 30, 50, 50, 30});
    EXPECT_EQ(trimSaturatedRuns(samples, 40, false, 8).size(),
              samples.size());
}

TEST(Latencies, ExtractsDoubles)
{
    const auto samples = samplesFrom({10, 20, 30});
    const auto vals = latencies(samples);
    ASSERT_EQ(vals.size(), 3u);
    EXPECT_DOUBLE_EQ(vals[1], 20.0);
}
