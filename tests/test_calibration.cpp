/**
 * @file
 * channel::Calibration tests: for every ChannelId x every registered
 * CPU model x both carriers, the derived threshold must lie strictly
 * between the noise-free readouts of the latency pair it separates;
 * the cross-core thresholds must match the
 * MeasurementModel::chaseThresholdBetween values the legacy runner
 * used, and the Prime+Probe thresholds the historical probe formula
 * (all-ways L1 hits plus half the L2 delta). A modified model that
 * keeps a stock name calibrates from its latencies, not its name.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "channel/calibration.hpp"
#include "timing/pointer_chase.hpp"

using namespace lruleak;
using namespace lruleak::channel;

namespace {

std::vector<timing::Uarch>
allUarchs()
{
    std::vector<timing::Uarch> uarchs;
    for (const auto &token : timing::uarchTokens())
        uarchs.push_back(timing::uarchFromName(token));
    return uarchs;
}

/** Carrier-set associativity the layouts use. */
std::uint32_t
waysFor(Carrier carrier)
{
    return carrier == Carrier::L1 ? sim::CacheConfig::intelL1d().ways
                                  : sim::CacheConfig::intelLlc().ways;
}

/**
 * Noise-free readout of one sample when the timed access is served at
 * @p level: what MeasurementModel::chase computes with zero jitter —
 * or, for Prime+Probe, the whole probe walk served at @p level —
 * floored to the CPU's timestamp granularity exactly as the attacker
 * observes it (the AMD model reads in 16-cycle granules).
 */
double
noiselessReadout(const timing::Uarch &u, ChannelId id, Carrier carrier,
                 sim::HitLevel level)
{
    const std::uint32_t ways = waysFor(carrier);
    double total = 0.0;
    if (id == ChannelId::DirtyEvict || id == ChannelId::FlushDirty) {
        // The dirty channels are carrier-independent: the receiver
        // times either a pinned L1-hit readout access that absorbs the
        // pending write-back stall (dirty-evict) or a clflush
        // (flush-dirty).  cal.fast/cal.slow encode clean/dirty, not
        // serving levels; the dirty readout adds one write-back.
        total = id == ChannelId::DirtyEvict
                    ? u.chase_overhead + u.l1_latency
                    : u.single_overhead + u.serialize_floor;
        if (level == sim::HitLevel::Memory)
            total += u.wb_latency;
    } else if (id == ChannelId::PrimeProbe) {
        // All ways served at the fast level, except (for the slow
        // readout) the one line the sender evicted.
        const Calibration cal = carrierLevels(id, carrier);
        const std::uint32_t fast = u.latency(cal.fast);
        total = u.chase_overhead + ways * fast;
        if (level == cal.slow)
            total += u.latency(cal.slow) - fast;
    } else {
        total = u.chase_overhead +
                timing::MeasurementModel::kChainLength * u.l1_latency +
                u.latency(level);
    }
    const auto g = std::max<std::uint32_t>(u.tsc_granularity, 1);
    return static_cast<double>(
        (static_cast<std::uint64_t>(total) / g) * g);
}

} // namespace

TEST(Calibration, ThresholdStrictlySeparatesItsLatencyPair)
{
    for (const auto &u : allUarchs()) {
        for (ChannelId id : allChannelIds()) {
            for (Carrier carrier : {Carrier::L1, Carrier::Llc}) {
                const Calibration cal =
                    calibrationFor(u, id, carrier, waysFor(carrier));
                const double fast =
                    noiselessReadout(u, id, carrier, cal.fast);
                const double slow =
                    noiselessReadout(u, id, carrier, cal.slow);
                SCOPED_TRACE(u.name + " / " +
                             std::string(channelIdToken(id)) +
                             (carrier == Carrier::L1 ? " / L1"
                                                     : " / LLC"));
                EXPECT_LT(fast, slow);
                EXPECT_GT(static_cast<double>(cal.threshold), fast);
                EXPECT_LT(static_cast<double>(cal.threshold), slow);
            }
        }
    }
}

TEST(Calibration, XCoreThresholdMatchesChaseThresholdBetween)
{
    for (const auto &u : allUarchs()) {
        const timing::MeasurementModel model(u);
        const Calibration cal = calibrationFor(
            u, ChannelId::XCoreLruAlg2, Carrier::Llc, waysFor(Carrier::Llc));
        EXPECT_EQ(cal.threshold,
                  model.chaseThresholdBetween(sim::HitLevel::LLC,
                                              sim::HitLevel::Memory))
            << u.name;
        EXPECT_EQ(cal.fast, sim::HitLevel::LLC) << u.name;
        EXPECT_EQ(cal.slow, sim::HitLevel::Memory) << u.name;
        EXPECT_TRUE(cal.invert) << u.name;
    }
}

TEST(Calibration, SingleCoreLruThresholdMatchesChaseThreshold)
{
    for (const auto &u : allUarchs()) {
        const timing::MeasurementModel model(u);
        for (ChannelId id : {ChannelId::LruAlg1, ChannelId::LruAlg2}) {
            const Calibration cal =
                calibrationFor(u, id, Carrier::L1, waysFor(Carrier::L1));
            EXPECT_EQ(cal.threshold, model.chaseThreshold())
                << u.name << " " << channelIdToken(id);
        }
        // Polarity: Algorithm 1 signals with a hit, Algorithm 2 with an
        // eviction.
        EXPECT_FALSE(calibrationFor(u, ChannelId::LruAlg1, Carrier::L1, 8)
                         .invert);
        EXPECT_TRUE(calibrationFor(u, ChannelId::LruAlg2, Carrier::L1, 8)
                        .invert);
    }
}

TEST(Calibration, PrimeProbeMatchesHistoricalProbeThreshold)
{
    for (const auto &u : allUarchs()) {
        for (std::uint32_t ways : {4u, 8u, 16u}) {
            // The historical formula, inlined: all-ways L1 hits plus
            // half the L2 delta.
            const std::uint32_t expected = u.chase_overhead +
                                           ways * u.l1_latency +
                                           (u.l2_latency - u.l1_latency) / 2;
            EXPECT_EQ(calibrationFor(u, ChannelId::PrimeProbe, Carrier::L1,
                                     ways)
                          .threshold,
                      expected)
                << u.name << " ways=" << ways;
        }
    }
}

TEST(Calibration, DirtyThresholdsSeparateCleanFromDirtyReadout)
{
    // The dirty-state channels read the victim line's dirty bit, not
    // its presence: the clean and dirty readouts differ by exactly one
    // write-back.  The threshold must fall strictly between the two
    // quantized noise-free readouts on every CPU model, and must not
    // depend on the carrier (the dirty bit lives in whatever level
    // holds the line).
    for (const auto &u : allUarchs()) {
        for (ChannelId id :
             {ChannelId::DirtyEvict, ChannelId::FlushDirty}) {
            const Calibration l1 =
                calibrationFor(u, id, Carrier::L1, waysFor(Carrier::L1));
            const Calibration llc = calibrationFor(
                u, id, Carrier::Llc, waysFor(Carrier::Llc));
            SCOPED_TRACE(u.name + " / " +
                         std::string(channelIdToken(id)));
            EXPECT_EQ(l1.threshold, llc.threshold);
            EXPECT_TRUE(l1.invert); // slow readout = dirty = bit 1

            const double clean =
                noiselessReadout(u, id, Carrier::L1, l1.fast);
            const double dirty =
                noiselessReadout(u, id, Carrier::L1, l1.slow);
            EXPECT_LT(clean, dirty);
            EXPECT_GT(static_cast<double>(l1.threshold), clean);
            EXPECT_LT(static_cast<double>(l1.threshold), dirty);
        }
    }
}

TEST(Calibration, FlushReloadMemSeparatesL1FromMemory)
{
    for (const auto &u : allUarchs()) {
        const Calibration cal =
            calibrationFor(u, ChannelId::FrMem, Carrier::L1, 8);
        EXPECT_EQ(cal.fast, sim::HitLevel::L1) << u.name;
        EXPECT_EQ(cal.slow, sim::HitLevel::Memory) << u.name;
        EXPECT_FALSE(cal.invert) << u.name;
    }
}

TEST(CalibrationMemo, KeysOnTimingNotOnName)
{
    // Two models sharing a name but differing in a formula input must
    // calibrate apart (tests build modified uarchs all the time).
    const timing::Uarch base = timing::Uarch::intelXeonE52690();
    timing::Uarch slow_llc = base;
    slow_llc.llc_latency += 60;

    const Calibration a = calibrationFor(base, ChannelId::XCoreLruAlg2,
                                         Carrier::Llc, 16);
    const Calibration b = calibrationFor(slow_llc, ChannelId::XCoreLruAlg2,
                                         Carrier::Llc, 16);
    EXPECT_NE(a.threshold, b.threshold);

    // And deriving the modified model must not disturb the original's.
    const Calibration a2 = calibrationFor(base, ChannelId::XCoreLruAlg2,
                                          Carrier::Llc, 16);
    EXPECT_EQ(a.threshold, a2.threshold);
    EXPECT_EQ(a.invert, a2.invert);
    EXPECT_EQ(a.fast, a2.fast);
    EXPECT_EQ(a.slow, a2.slow);
}
