/**
 * @file
 * End-to-end covert-channel tests: the paper's headline behaviours as
 * executable assertions, driven through the unified channel::Session
 * pipeline.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "channel/decoder.hpp"
#include "channel/multi_spy.hpp"
#include "channel/session.hpp"

using namespace lruleak;
using namespace lruleak::channel;

namespace {

SessionConfig
baseConfig()
{
    SessionConfig cfg;
    cfg.channel = ChannelId::LruAlg1;
    cfg.mode = SharingMode::HyperThreaded;
    cfg.message = randomBits(96, 424242);
    cfg.repeats = 1;
    cfg.d = 8;
    cfg.tr = 600;
    cfg.ts = 6000;
    cfg.seed = 7;
    return cfg;
}

} // namespace

TEST(CovertChannel, Alg1HyperThreadedIsClean)
{
    const auto res = runSession(baseConfig());
    EXPECT_EQ(res.sent.size(), 96u);
    EXPECT_LT(res.error_rate, 0.02);
    // Ts = 6000 at 3.8 GHz: effective rate in the paper's 400-650 Kbps
    // band.
    EXPECT_GT(res.kbps, 400.0);
    EXPECT_LT(res.kbps, 700.0);
}

TEST(CovertChannel, Alg2HyperThreadedWorksWithOddD)
{
    auto cfg = baseConfig();
    cfg.channel = ChannelId::LruAlg2;
    cfg.d = 5;
    const auto res = runSession(cfg);
    EXPECT_LT(res.error_rate, 0.05);
}

TEST(CovertChannel, Alg2EvenDPathology)
{
    // Fig. 4 bottom: even d is bad for Algorithm 2 on Tree-PLRU.
    auto cfg = baseConfig();
    cfg.channel = ChannelId::LruAlg2;
    cfg.d = 5;
    const double odd_err = runSession(cfg).error_rate;
    cfg.d = 4;
    const double even_err = runSession(cfg).error_rate;
    EXPECT_GT(even_err, odd_err + 0.05);
}

TEST(CovertChannel, FasterTsRaisesErrorOrKeepsLow)
{
    // Error must not *decrease* when pushing the rate (Fig. 4 trend).
    auto cfg = baseConfig();
    cfg.channel = ChannelId::LruAlg2;
    cfg.d = 5;
    cfg.ts = 30000;
    const double slow_err = runSession(cfg).error_rate;
    cfg.ts = 4500;
    const double fast_err = runSession(cfg).error_rate;
    EXPECT_GE(fast_err + 0.02, slow_err);
}

TEST(CovertChannel, SenderNeverMissesInSteadyState)
{
    // The stealth property: the LRU sender encodes with cache hits.
    const auto res = runSession(baseConfig());
    EXPECT_LT(res.sender_l1.missRate(), 0.01);
}

TEST(CovertChannel, ThresholdMatchesUarch)
{
    const auto res = runSession(baseConfig());
    const timing::MeasurementModel model(
        timing::Uarch::intelXeonE52690());
    EXPECT_EQ(res.threshold, model.chaseThreshold());
}

TEST(CovertChannel, DeterministicForSeed)
{
    const auto a = runSession(baseConfig());
    const auto b = runSession(baseConfig());
    EXPECT_EQ(a.error_rate, b.error_rate);
    EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i)
        EXPECT_EQ(a.samples[i].latency, b.samples[i].latency);
}

TEST(CovertChannel, DifferentSeedsStillDecode)
{
    for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
        auto cfg = baseConfig();
        cfg.seed = seed;
        cfg.message = randomBits(64, seed * 13);
        EXPECT_LT(runSession(cfg).error_rate, 0.03) << "seed " << seed;
    }
}

TEST(CovertChannel, WorksUnderTrueLru)
{
    auto cfg = baseConfig();
    cfg.l1_policy = sim::ReplPolicyKind::TrueLru;
    EXPECT_LT(runSession(cfg).error_rate, 0.02);
}

TEST(CovertChannel, NaiveProtocolDiesUnderBitPlru)
{
    // Emergent simulator finding (see EXPERIMENTS.md): under Bit-PLRU
    // the receiver's own measurement access keeps line 0's MRU bit set,
    // so line 0 is never chosen as victim and the receiver reads a
    // constant -- the d = 8 protocol tuned for Tree-PLRU does not
    // transfer as-is.
    auto cfg = baseConfig();
    cfg.l1_policy = sim::ReplPolicyKind::BitPlru;
    EXPECT_GT(runSession(cfg).error_rate, 0.25);
}

TEST(Defense, RandomReplacementKillsChannel)
{
    // Section IX-A: no LRU state, no channel.  With random replacement
    // line 0's fate is independent of the sender.
    auto cfg = baseConfig();
    cfg.l1_policy = sim::ReplPolicyKind::Random;
    const auto res = runSession(cfg);
    EXPECT_GT(res.error_rate, 0.25);
}

TEST(Defense, FifoRemovesTheHitBasedChannel)
{
    // Under FIFO a *hitting* sender is invisible (state only moves on
    // fills).  The residual channel that remains works through sender
    // MISSES -- i.e., it degenerates into a classic reuse channel that
    // the paper notes is already observable and detectable.  Assert
    // exactly that: the channel only survives because the sender now
    // misses orders of magnitude more often than under Tree-PLRU,
    // destroying the stealth property of Section VII.
    auto plru = baseConfig();
    const auto plru_res = runSession(plru);

    auto fifo = baseConfig();
    fifo.l1_policy = sim::ReplPolicyKind::Fifo;
    const auto fifo_res = runSession(fifo);

    EXPECT_GT(fifo_res.sender_l1.missRate(),
              20 * std::max(plru_res.sender_l1.missRate(), 1e-6));
}

TEST(Defense, DawgL1KillsTheLruChannel)
{
    // Section IX-B: partitioning the ways *and* the replacement state
    // per protection domain removes the cross-thread LRU channel
    // entirely -- the receiver's lines live in their own partition.
    auto cfg = baseConfig();
    cfg.l1_secure = sim::SecureMode::Dawg;
    const auto res = runSession(cfg);
    EXPECT_GT(res.error_rate, 0.25);
}

TEST(Defense, RandomFillL1DegradesTheChannel)
{
    // Random Fill decouples the fill address from the miss address, so
    // the receiver's init phase no longer deterministically plants its
    // lines and the decode collapses.
    auto cfg = baseConfig();
    cfg.l1_secure = sim::SecureMode::RandomFill;
    const auto res = runSession(cfg);
    EXPECT_GT(res.error_rate, 0.25);
}

TEST(Amd, CrossAddressSpaceAlg1IsDead)
{
    // Section VI-B: the utag way predictor makes every receiver reload
    // look like a miss across address spaces.
    auto cfg = baseConfig();
    cfg.uarch = timing::Uarch::amdEpyc7571();
    cfg.message = alternatingBits(24);
    cfg.ts = 100'000;
    cfg.tr = 1000;
    cfg.shared_same_vaddr = false;
    const auto res = runSession(cfg);
    EXPECT_GT(res.error_rate, 0.3);
}

TEST(Amd, SameAddressSpaceAlg1Works)
{
    auto cfg = baseConfig();
    cfg.uarch = timing::Uarch::amdEpyc7571();
    cfg.message = alternatingBits(24);
    cfg.ts = 100'000;
    cfg.tr = 1000;
    cfg.shared_same_vaddr = true; // pthreads in one process
    const auto res = runSession(cfg);
    EXPECT_LT(res.error_rate, 0.1);
    // Table IV: AMD an order of magnitude slower than Intel.
    EXPECT_LT(res.kbps, 50.0);
    EXPECT_GT(res.kbps, 5.0);
}

TEST(Amd, Alg2WorksAcrossProcesses)
{
    auto cfg = baseConfig();
    cfg.uarch = timing::Uarch::amdEpyc7571();
    cfg.channel = ChannelId::LruAlg2;
    cfg.d = 5;
    cfg.message = alternatingBits(24);
    cfg.ts = 100'000;
    cfg.tr = 1000;
    const auto res = runSession(cfg);
    EXPECT_LT(res.error_rate, 0.1);
}

TEST(TimeSliced, Fig6OperatingPoint)
{
    // d = 8, Tr = 1e8: sending 1 is read as 1 in a clearly nonzero
    // fraction of samples; sending 0 almost never (Fig. 6).
    SessionConfig cfg;
    cfg.channel = ChannelId::LruAlg1;
    cfg.mode = SharingMode::TimeSliced;
    cfg.d = 8;
    cfg.tr = 100'000'000;
    cfg.encode_gap = 20'000;
    cfg.max_samples = 80;
    cfg.seed = 3;
    const double p1 = sessionPercentOnes(cfg, 1);
    const double p0 = sessionPercentOnes(cfg, 0);
    EXPECT_LT(p0, 0.05);
    EXPECT_GT(p1, 0.10);
    EXPECT_GT(p1, p0 + 0.10);
}

TEST(TimeSliced, TinyTrSeesAlmostNothing)
{
    // Well below the quantum, most measurements never interleave with
    // the sender.
    SessionConfig cfg;
    cfg.channel = ChannelId::LruAlg1;
    cfg.mode = SharingMode::TimeSliced;
    cfg.d = 8;
    cfg.tr = 10'000'000;
    cfg.encode_gap = 20'000;
    cfg.max_samples = 80;
    cfg.seed = 3;
    const double p1 = sessionPercentOnes(cfg, 1);
    EXPECT_LT(p1, 0.15);
}

TEST(CovertChannel, SamplesCarryMonotonicTimestamps)
{
    const auto res = runSession(baseConfig());
    for (std::size_t i = 1; i < res.samples.size(); ++i)
        ASSERT_GE(res.samples[i].tsc, res.samples[i - 1].tsc);
}

TEST(CovertChannel, SessionLayoutHonoursConfig)
{
    // The session derives its carrier geometry from the config: an
    // L1-carried channel speaks 8-way L1 geometry on the single-core
    // topology; an LLC-native channel gets the 16-way LLC plan, and
    // cross-core mode forces the multi-core topology.
    SessionConfig cfg;
    cfg.channel = ChannelId::LruAlg1;
    EXPECT_EQ(sessionCarrier(cfg), Carrier::L1);
    EXPECT_FALSE(sessionMultiCore(cfg));
    EXPECT_EQ(sessionLayoutFor(cfg).ways(), 8u);

    cfg.channel = ChannelId::XCoreLruAlg2;
    EXPECT_EQ(sessionCarrier(cfg), Carrier::Llc);
    EXPECT_EQ(sessionLayoutFor(cfg).ways(), 16u);

    cfg.mode = SharingMode::CrossCore;
    EXPECT_TRUE(sessionMultiCore(cfg));
}

TEST(CovertChannel, DecodedSymbolsAlignWithSentBits)
{
    // The leakage plumbing: one decoded symbol per sent bit, erasures
    // included, and on the clean hyper-threaded channel the symbols
    // match the sent bits almost everywhere.
    const auto res = runSession(baseConfig());
    ASSERT_EQ(res.decoded_symbols.size(), res.sent.size());
    std::size_t agree = 0;
    for (std::size_t i = 0; i < res.sent.size(); ++i)
        agree += res.decoded_symbols[i] == res.sent[i] ? 1 : 0;
    EXPECT_GT(agree, res.sent.size() * 9 / 10);
}

TEST(CovertChannel, DecodeWindowAndBudgetHoldInEveryMode)
{
    // Two properties of every finite session, at smoke size: the decoded
    // symbols are the receiver's samples windowed on the sender's bit
    // clock from its first deadline, and with no explicit budget the
    // receiver takes nbits * ts / tr samples plus 8 of slack.
    auto ht = baseConfig();
    ht.message = randomBits(32, 11);

    auto sliced = baseConfig();
    sliced.mode = SharingMode::TimeSliced;
    sliced.message = randomBits(16, 12);
    sliced.tr = 2'000;
    sliced.ts = 60'000;
    sliced.tslice.quantum = 30'000; // the scaled OS model
    sliced.tslice.quantum_jitter = 15'000;
    sliced.tslice.tick_period = 100'000;

    auto xcore = baseConfig();
    xcore.channel = ChannelId::XCoreLruAlg2;
    xcore.mode = SharingMode::CrossCore;
    xcore.message = randomBits(16, 13);
    xcore.tr = 3'000;
    xcore.ts = 30'000;
    xcore.noise_cores = 1;

    auto xcore_sliced = xcore;
    xcore_sliced.quantum = 60'000;
    xcore_sliced.tslice.quantum_jitter = 30'000;
    xcore_sliced.tslice.tick_period = 100'000;

    for (const SessionConfig &cfg : {ht, sliced, xcore, xcore_sliced}) {
        SCOPED_TRACE(testing::Message()
                     << sharingModeToken(cfg.mode) << " quantum "
                     << cfg.quantum);
        const auto res = runSession(cfg);
        const std::size_t nbits = cfg.message.size() * cfg.repeats;
        EXPECT_EQ(res.decoded_symbols,
                  windowSymbols(res.samples, res.threshold, res.invert,
                                res.sender_start, cfg.ts, nbits));
        ASSERT_EQ(cfg.max_samples, 0u);
        EXPECT_EQ(res.samples.size(), nbits * cfg.ts / cfg.tr + 8);
    }
}

// ------------------------------------------------------ config checks

namespace {

/** @p cfg is refused, before anything runs, with @p field named. */
void
expectRejected(const SessionConfig &cfg, const std::string &field)
{
    try {
        cfg.validate();
        ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(runSession(cfg), std::invalid_argument);
}

} // namespace

TEST(SessionValidate, RejectsZeroTr)
{
    auto cfg = baseConfig();
    cfg.tr = 0;
    expectRejected(cfg, "SessionConfig::tr");
    cfg.tr = 1;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SessionValidate, RejectsZeroTs)
{
    // A zero bit period would never move the sender past its deadline.
    auto cfg = baseConfig();
    cfg.ts = 0;
    expectRejected(cfg, "SessionConfig::ts");
    cfg.ts = 1;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SessionValidate, RejectsInitDepthBeyondCarrierWays)
{
    // The 8-way L1 carrier takes d <= 8 ...
    auto cfg = baseConfig();
    cfg.d = 8;
    EXPECT_NO_THROW(cfg.validate());
    cfg.d = 9;
    expectRejected(cfg, "SessionConfig::d");

    // ... and the 16-way LLC carrier d <= 16, in any sharing mode.
    for (const SharingMode mode :
         {SharingMode::HyperThreaded, SharingMode::CrossCore}) {
        auto llc = baseConfig();
        llc.channel = ChannelId::XCoreLruAlg2;
        llc.mode = mode;
        llc.d = 16;
        EXPECT_NO_THROW(llc.validate()) << sharingModeToken(mode);
        llc.d = 17;
        expectRejected(llc, "SessionConfig::d");
    }
}

TEST(SessionValidate, RejectsMultiSpyOutsideCrossCoreAlg2)
{
    auto cfg = baseConfig();
    cfg.channel = ChannelId::XCoreLruAlg2;
    cfg.mode = SharingMode::CrossCore;
    cfg.spies = 3;
    EXPECT_NO_THROW(cfg.validate());
    cfg.mode = SharingMode::HyperThreaded;
    expectRejected(cfg, "SessionConfig::spies");
    cfg.mode = SharingMode::CrossCore;
    cfg.channel = ChannelId::LruAlg2;
    expectRejected(cfg, "SessionConfig::spies");
    // One receiver (spies 0 or 1) is legal with any channel and mode.
    cfg.spies = 1;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SessionValidate, RejectsEmptyNoiseTrace)
{
    // An empty trace used to fall back to the synthetic noise program
    // without a word; now the config names the field.
    auto cfg = baseConfig();
    cfg.channel = ChannelId::XCoreLruAlg2;
    cfg.mode = SharingMode::CrossCore;
    cfg.noise_cores = 2;
    cfg.noise_trace = std::make_shared<const workload::TraceFile>();
    expectRejected(cfg, "SessionConfig::noise_trace");
    auto trace = std::make_shared<workload::TraceFile>();
    trace->records.push_back(workload::TraceRecord{0x1000, false});
    cfg.noise_trace = trace;
    EXPECT_NO_THROW(cfg.validate());
}

// ------------------------------------------------------------ multi-spy

TEST(MultiSpy, MergeFollowsAnySpyWinsContract)
{
    constexpr std::uint8_t E = kErasureSymbol;
    const Bits a = {1, 0, E, E, 0};
    const Bits b = {0, 0, 1, E, E};
    const Bits c = {0, E, E, E, 0};
    const Bits merged = mergeSpySymbols({a, b, c});
    const Bits expected = {1, 0, 1, E, 0};
    EXPECT_EQ(merged, expected);

    // K = 1 degenerates to the single-receiver row unchanged, so the
    // estimator sees exactly what windowSymbols() would have produced.
    EXPECT_EQ(mergeSpySymbols({a}), a);
    EXPECT_EQ(mergeSpySymbols({}), Bits{});
    EXPECT_THROW(mergeSpySymbols({a, Bits{0, 1}}), std::invalid_argument);
}

namespace {

/** The sharp_defense operating point: classic LRU LLC, slow clocks. */
SessionConfig
teamConfig(std::uint32_t spies)
{
    SessionConfig cfg;
    cfg.channel = ChannelId::XCoreLruAlg2;
    cfg.mode = SharingMode::CrossCore;
    cfg.llc_policy = sim::ReplPolicyKind::TrueLru;
    cfg.spies = spies;
    cfg.message = randomBits(16, 4711);
    cfg.d = 12;
    cfg.tr = 3000;
    cfg.ts = 30000;
    cfg.seed = 47;
    return cfg;
}

} // namespace

TEST(MultiSpy, KSpySymbolsAlignOneToOneWithSentBits)
{
    // The satellite guarantee: the K-spy merged trace keeps the exact
    // one-symbol-per-sent-bit alignment decoded_symbols has for K = 1.
    const auto res = runSession(teamConfig(3));
    EXPECT_EQ(res.spies, 3u);
    EXPECT_GE(res.cores, 4u); // sender + three spies
    ASSERT_EQ(res.decoded_symbols.size(), res.sent.size());
    for (std::uint8_t s : res.decoded_symbols)
        EXPECT_TRUE(s == 0 || s == 1 || s == kErasureSymbol) << int(s);
    // On the unprotected LRU LLC the team decodes cleanly.
    EXPECT_LT(res.error_rate, 0.15);
}

TEST(MultiSpy, RequiresCrossCoreAlg2)
{
    auto cfg = teamConfig(2);
    cfg.channel = ChannelId::LruAlg2;
    EXPECT_THROW(runSession(cfg), std::invalid_argument);
    auto smt = teamConfig(2);
    smt.mode = SharingMode::HyperThreaded;
    EXPECT_THROW(runSession(smt), std::invalid_argument);
}

TEST(MultiSpy, SpyReceiverRejectsATeamOfOne)
{
    // One receiver is the channel's own receiver, never a team of one.
    const ChannelLayout layout(sim::CacheConfig::intelLlc());
    MultiSpyConfig msc;
    msc.spies = 1;
    EXPECT_THROW(SpyReceiver(layout, msc, 0), std::invalid_argument);
    msc.spies = 0;
    EXPECT_THROW(SpyReceiver(layout, msc, 0), std::invalid_argument);
    msc.spies = 2;
    EXPECT_NO_THROW(SpyReceiver(layout, msc, 0));
    EXPECT_NO_THROW(SpyReceiver(layout, msc, 1));
}

TEST(MultiSpy, PinSlicesTeamRestoresChannelSharpKills)
{
    // SHARP vs the adversary sizes (the sharp_defense headline): the
    // single spy is blinded outright; the three-spy pin-slices team
    // decodes through the defense, paying a loud alarm trail for it.
    auto solo = teamConfig(1);
    solo.llc_secure = sim::SecureMode::Sharp;
    const auto solo_res = runSession(solo);
    EXPECT_GT(solo_res.error_rate, 0.3);

    auto team = teamConfig(3);
    team.llc_secure = sim::SecureMode::Sharp;
    const auto team_res = runSession(team);
    EXPECT_LT(team_res.error_rate, 0.15);
    EXPECT_GT(team_res.sharp_alarms, 0u);
    ASSERT_EQ(team_res.decoded_symbols.size(), team_res.sent.size());
}
