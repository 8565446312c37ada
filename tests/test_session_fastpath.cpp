/**
 * @file
 * The Session per-bit fast path must never change results:
 *
 *  - the thread-local topology pool makes a reused (reset) hierarchy
 *    indistinguishable from a freshly constructed one, for both the
 *    single-core and the multi-core topology, also when the next
 *    session changes the seed (the pool ignores seeds and reseeds);
 *  - every LRU channel decodes its transmission per-op, also with the
 *    sender paced at the receiver's sampling period.
 */

#include <gtest/gtest.h>

#include <thread>

#include "channel/session.hpp"

using namespace lruleak;
using namespace lruleak::channel;

namespace {

void
expectSameSession(const SessionResult &a, const SessionResult &b)
{
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.error_rate, b.error_rate);
    EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
    EXPECT_EQ(a.threshold, b.threshold);
    EXPECT_EQ(a.sender_start, b.sender_start);
    EXPECT_EQ(a.back_invalidations, b.back_invalidations);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].tsc, b.samples[i].tsc) << i;
        EXPECT_EQ(a.samples[i].latency, b.samples[i].latency) << i;
        EXPECT_EQ(a.samples[i].level, b.samples[i].level) << i;
    }
    EXPECT_EQ(a.sender_l1.accesses, b.sender_l1.accesses);
    EXPECT_EQ(a.sender_l1.misses, b.sender_l1.misses);
    EXPECT_EQ(a.receiver_l1.accesses, b.receiver_l1.accesses);
    EXPECT_EQ(a.receiver_l1.misses, b.receiver_l1.misses);
    EXPECT_EQ(a.sender_stats.accesses, b.sender_stats.accesses);
    EXPECT_EQ(a.receiver_stats.accesses, b.receiver_stats.accesses);
    EXPECT_EQ(a.sender_stats.busy_cycles, b.sender_stats.busy_cycles);
    EXPECT_EQ(a.receiver_stats.busy_cycles, b.receiver_stats.busy_cycles);
}

SessionConfig
smtConfig()
{
    SessionConfig config;
    config.channel = ChannelId::LruAlg1;
    config.mode = SharingMode::HyperThreaded;
    config.message = Bits{1, 0, 1, 1, 0, 0, 1, 0};
    config.repeats = 2;
    config.seed = 7;
    return config;
}

SessionConfig
xcoreConfig()
{
    SessionConfig config;
    config.channel = ChannelId::XCoreLruAlg2;
    config.mode = SharingMode::CrossCore;
    config.d = 12;
    config.tr = 3000;
    config.ts = 30000;
    config.llc_policy = sim::ReplPolicyKind::TreePlru;
    config.message = Bits{1, 0, 1, 1};
    config.seed = 9;
    return config;
}

TEST(TopologyPool, PooledSessionMatchesFreshThread)
{
    for (const SessionConfig &config : {smtConfig(), xcoreConfig()}) {
        // A brand-new thread has an empty pool, so its run constructs
        // the topology from scratch.
        SessionResult fresh;
        std::thread worker([&] { fresh = runSession(config); });
        worker.join();

        // These two runs share this thread's pool: the first fills it
        // (or reuses an earlier test's), the second definitely reuses.
        const SessionResult pooled1 = runSession(config);
        const SessionResult pooled2 = runSession(config);

        expectSameSession(fresh, pooled1);
        expectSameSession(fresh, pooled2);
    }
}

TEST(TopologyPool, SurvivesInterleavedTopologies)
{
    const SessionConfig smt = smtConfig();
    const SessionConfig xcore = xcoreConfig();

    const SessionResult smt_a = runSession(smt);
    const SessionResult xcore_a = runSession(xcore);
    // The single-core and multi-core pools are separate, so interleaving
    // does not displace either: both of these reuse — and results must
    // not change.
    const std::uint64_t builds = topologyBuilds();
    const SessionResult smt_b = runSession(smt);
    const SessionResult xcore_b = runSession(xcore);
    EXPECT_EQ(topologyBuilds(), builds);

    expectSameSession(smt_a, smt_b);
    expectSameSession(xcore_a, xcore_b);
}

TEST(TopologyPool, NewSeedReusesAndMatchesFreshThread)
{
    // Random replacement makes the seed observable: a pooled topology
    // that kept its old per-set streams would decode differently.
    SessionConfig smt = smtConfig();
    smt.l1_policy = sim::ReplPolicyKind::Random;
    SessionConfig xcore = xcoreConfig();
    xcore.llc_policy = sim::ReplPolicyKind::Random;
    xcore.noise_cores = 1;

    for (SessionConfig config : {smt, xcore}) {
        runSession(config); // fills this thread's pool
        config.seed += 1000;

        SessionResult fresh;
        std::thread worker([&] { fresh = runSession(config); });
        worker.join();

        const std::uint64_t builds = topologyBuilds();
        const SessionResult pooled = runSession(config);
        EXPECT_EQ(topologyBuilds(), builds) << "a new seed must not rebuild";
        expectSameSession(fresh, pooled);
    }
}

// ---------------------------------------------------------- per-op walks

TEST(PerOpWalks, LruChannelsDecodeWithinOneBit)
{
    SessionConfig configs[] = {smtConfig(), smtConfig(), xcoreConfig()};
    configs[1].channel = ChannelId::LruAlg2; // disjoint-address variant
    configs[1].d = 5; // Alg.2 needs odd d on Tree-PLRU (Fig. 4)
    for (const SessionConfig &config : configs) {
        const SessionResult res = runSession(config);
        ASSERT_EQ(res.sent.size(), res.received.size())
            << channelIdToken(config.channel);
        // The SMT carriers are clean here; the cross-core channel
        // deterministically loses only its first bit to startup sync.
        EXPECT_LE(res.error_rate * static_cast<double>(res.sent.size()), 1.0)
            << channelIdToken(config.channel);
    }
}

TEST(PerOpWalks, SenderPacingKeepsSmtChannelClean)
{
    // The covert bench lane paces the sender at the receiver's sampling
    // period (encode_gap = tr); the SMT channel must stay error-free
    // there.
    SessionConfig config = smtConfig();
    config.encode_gap = static_cast<std::uint32_t>(config.tr);
    const SessionResult res = runSession(config);
    ASSERT_EQ(res.sent.size(), res.received.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < res.sent.size(); ++i)
        mismatches += res.sent[i] != res.received[i];
    EXPECT_EQ(mismatches, 0u);
}

} // namespace
