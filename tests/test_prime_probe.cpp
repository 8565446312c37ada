/**
 * @file
 * Tests for the Prime+Probe baseline receiver.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "channel/calibration.hpp"
#include "channel/decoder.hpp"
#include "channel/edit_distance.hpp"
#include "channel/prime_probe.hpp"
#include "exec/engine.hpp"
#include "sim/hierarchy.hpp"

using namespace lruleak;
using namespace lruleak::channel;

namespace {

struct PpRun
{
    std::vector<Sample> samples;
    Bits sent;
    std::uint64_t sender_start = 0;
};

PpRun
runPp(const Bits &message, std::uint64_t ts = 6000, std::uint64_t tr = 600,
      sim::ReplPolicyKind policy = sim::ReplPolicyKind::TreePlru)
{
    sim::HierarchyConfig hc;
    hc.l1 = sim::CacheConfig::intelL1d(policy);
    sim::CacheHierarchy hierarchy(hc);
    const ChannelLayout layout;

    SenderConfig sc;
    sc.alg = LruAlgorithm::Alg2Disjoint; // no shared memory
    sc.message = message;
    sc.ts = ts;

    SamplingConfig rc;
    rc.tr = tr;
    rc.max_samples = message.size() * ts / tr + 8;

    LruSender sender(layout, sc);
    PpReceiver receiver(layout, rc);
    exec::LowestClock smt;
    exec::Engine engine(hierarchy, timing::Uarch::intelXeonE52690(), smt);
    engine.run(sender, receiver, 1);

    return PpRun{receiver.samples(), sender.sentBits(),
                 sender.startTsc()};
}

} // namespace

TEST(PrimeProbe, ThresholdSeparatesFullHitProbe)
{
    const auto u = timing::Uarch::intelXeonE52690();
    const auto threshold =
        calibrationFor(u, ChannelId::PrimeProbe, Carrier::L1, 8).threshold;
    // All-hit probe: overhead + 8 * L1.
    EXPECT_GT(threshold, u.chase_overhead + 8 * u.l1_latency);
    // One L2 reload pushes past it.
    EXPECT_LT(threshold,
              u.chase_overhead + 7 * u.l1_latency + u.l2_latency);
}

TEST(PrimeProbe, DecodesMessageUnderTrueLru)
{
    const Bits msg = randomBits(48, 9);
    const auto run = runPp(msg, 6000, 600, sim::ReplPolicyKind::TrueLru);
    const auto u = timing::Uarch::intelXeonE52690();
    const auto bits = windowDecode(
        run.samples,
        calibrationFor(u, ChannelId::PrimeProbe, Carrier::L1, 8).threshold,
        /*invert=*/true, run.sender_start, 6000, msg.size());
    EXPECT_LT(editErrorRate(msg, bits), 0.05);
}

TEST(PrimeProbe, TreePlruThrashDefeatsNaiveProbe)
{
    // A known PLRU artifact our simulator reproduces: once the sender
    // displaces a receiver line, a sequential probe walk keeps pointing
    // the Tree-PLRU victim at the receiver's OWN lines, so the single
    // missing line thrashes among them and never lands back on the
    // sender's line -> persistent false positives.  (One of the reasons
    // the paper's one-access LRU channel is easier to use on an L1 PLRU
    // than Prime+Probe.)
    const Bits msg = randomBits(48, 9);
    const auto run = runPp(msg, 6000, 600, sim::ReplPolicyKind::TreePlru);
    const auto u = timing::Uarch::intelXeonE52690();
    const auto bits = windowDecode(
        run.samples,
        calibrationFor(u, ChannelId::PrimeProbe, Carrier::L1, 8).threshold,
        /*invert=*/true, run.sender_start, 6000, msg.size());
    EXPECT_GT(editErrorRate(msg, bits), 0.2);
}

TEST(PrimeProbe, SilentSenderKeepsProbesFast)
{
    const auto run = runPp(Bits(24, 0));
    const auto u = timing::Uarch::intelXeonE52690();
    const auto bits = thresholdSamples(
        run.samples,
        calibrationFor(u, ChannelId::PrimeProbe, Carrier::L1, 8).threshold,
        true);
    EXPECT_LT(fractionOnes(bits), 0.10);
}

TEST(PrimeProbe, ActiveSenderSlowsProbes)
{
    const auto run = runPp(Bits(24, 1));
    const auto u = timing::Uarch::intelXeonE52690();
    const auto bits = thresholdSamples(
        run.samples,
        calibrationFor(u, ChannelId::PrimeProbe, Carrier::L1, 8).threshold,
        true);
    EXPECT_GT(fractionOnes(bits), 0.5);
}

TEST(PrimeProbe, ProbeLatencyScalesWithWays)
{
    // The paper's point in Section VII: P+P times N accesses, the LRU
    // channel only one.  The all-hit probe cost grows with N.
    const auto u = timing::Uarch::intelXeonE52690();
    EXPECT_GT(
        calibrationFor(u, ChannelId::PrimeProbe, Carrier::L1, 16).threshold,
        calibrationFor(u, ChannelId::PrimeProbe, Carrier::L1, 8).threshold);
}
