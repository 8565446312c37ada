/**
 * @file
 * Tests for the Flush+Reload baseline receiver (both variants).
 */

#include <gtest/gtest.h>

#include "channel/decoder.hpp"
#include "channel/edit_distance.hpp"
#include "channel/flush_reload.hpp"
#include "exec/engine.hpp"
#include "sim/hierarchy.hpp"

using namespace lruleak;
using namespace lruleak::channel;

namespace {

struct FrRun
{
    std::vector<Sample> samples;
    Bits sent;
    std::uint64_t sender_start = 0;
    sim::LevelStats sender_l1;
};

FrRun
runFr(FlushKind kind, const Bits &message, std::uint64_t ts = 6000,
      std::uint64_t tr = 600)
{
    sim::CacheHierarchy hierarchy;
    const ChannelLayout layout;

    SenderConfig sc;
    sc.alg = LruAlgorithm::Alg1Shared; // F+R uses the shared line
    sc.message = message;
    sc.ts = ts;

    FrReceiverConfig rc;
    rc.kind = kind;
    rc.tr = tr;
    rc.max_samples = message.size() * ts / tr + 8;

    LruSender sender(layout, sc);
    FrReceiver receiver(layout, rc);
    exec::LowestClock policy;
    exec::Engine engine(hierarchy, timing::Uarch::intelXeonE52690(), policy);
    engine.run(sender, receiver, 1);

    FrRun out;
    out.samples = receiver.samples();
    out.sent = sender.sentBits();
    out.sender_start = sender.startTsc();
    out.sender_l1 =
        hierarchy.l1().counters().forThread(kSenderThread);
    return out;
}

/** Reload threshold: cached (any level) vs memory for ToMemory, L1 vs
 *  L2 for FromL1. */
std::uint32_t
thresholdFor(FlushKind kind)
{
    const auto u = timing::Uarch::intelXeonE52690();
    const timing::MeasurementModel model(u);
    if (kind == FlushKind::FromL1)
        return model.chaseThreshold();
    return u.chase_overhead + 7 * u.l1_latency +
           (u.llc_latency + u.mem_latency) / 2;
}

} // namespace

TEST(FlushReload, MemVariantDecodesMessage)
{
    const Bits msg = randomBits(64, 5);
    const auto run = runFr(FlushKind::ToMemory, msg);
    const auto bits = windowDecode(run.samples, thresholdFor(
                                       FlushKind::ToMemory),
                                   false, run.sender_start, 6000,
                                   msg.size());
    EXPECT_LT(editErrorRate(msg, bits), 0.05);
}

TEST(FlushReload, L1VariantDecodesMessage)
{
    const Bits msg = randomBits(64, 6);
    const auto run = runFr(FlushKind::FromL1, msg);
    const auto bits = windowDecode(run.samples,
                                   thresholdFor(FlushKind::FromL1), false,
                                   run.sender_start, 6000, msg.size());
    EXPECT_LT(editErrorRate(msg, bits), 0.08);
}

TEST(FlushReload, MemVariantForcesSenderMemoryMisses)
{
    // Table VI's contrast: the F+R(mem) sender misses L1 far more often
    // than the LRU sender (every post-flush encode is a full miss).
    const auto run = runFr(FlushKind::ToMemory, Bits(64, 1));
    EXPECT_GT(run.sender_l1.missRate(), 0.005);
}

TEST(FlushReload, L1VariantSenderHitsL2)
{
    // The sender's encode misses L1 but not the whole hierarchy.
    sim::CacheHierarchy hierarchy;
    const ChannelLayout layout;
    SenderConfig sc;
    sc.message = Bits(32, 1);
    sc.ts = 6000;
    FrReceiverConfig rc;
    rc.kind = FlushKind::FromL1;
    rc.max_samples = 300;
    LruSender sender(layout, sc);
    FrReceiver receiver(layout, rc);
    exec::LowestClock policy;
    exec::Engine engine(hierarchy, timing::Uarch::intelXeonE52690(), policy);
    engine.run(sender, receiver, 1);
    // Encode accesses that missed L1 must all be L2 hits, not memory.
    bool saw_l2 = false;
    for (auto level : sender.encodeLevels()) {
        EXPECT_NE(level, sim::HitLevel::Memory);
        saw_l2 |= level == sim::HitLevel::L2;
    }
    EXPECT_TRUE(saw_l2);
}

TEST(FlushReload, SilentSenderReadsZero)
{
    const auto run = runFr(FlushKind::ToMemory, Bits(32, 0));
    const auto bits = thresholdSamples(run.samples,
                                       thresholdFor(FlushKind::ToMemory),
                                       false);
    EXPECT_LT(fractionOnes(bits), 0.05);
}

TEST(FlushReload, ReceiverSamplesAtRequestedPeriod)
{
    const auto run = runFr(FlushKind::ToMemory, Bits(16, 1), 6000, 1000);
    ASSERT_GT(run.samples.size(), 4u);
    // Median period within 2x of Tr (flush work inflates it slightly).
    std::vector<std::uint64_t> gaps;
    for (std::size_t i = 1; i < run.samples.size(); ++i)
        gaps.push_back(run.samples[i].tsc - run.samples[i - 1].tsc);
    std::sort(gaps.begin(), gaps.end());
    const auto median = gaps[gaps.size() / 2];
    EXPECT_GE(median, 900u);
    EXPECT_LE(median, 2500u);
}
