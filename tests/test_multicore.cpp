/**
 * @file
 * Tests for the multi-core topology: inclusive-LLC semantics,
 * back-invalidation, the inclusion audit (including fault injection),
 * the multi-core engine's determinism, and the cross-core channel
 * end to end.
 */

#include <gtest/gtest.h>

#include "channel/lru_channel.hpp"
#include "channel/session.hpp"
#include "exec/engine.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::sim;

namespace {

/**
 * The canonical cross-core session: Algorithm 2 over the shared LLC
 * with the operating point the legacy runXCoreChannel shim used
 * (Tree-PLRU LLC, d = 12, Tr = 3000, Ts = 30000).
 */
channel::SessionConfig
xcoreConfig()
{
    channel::SessionConfig cfg;
    cfg.channel = channel::ChannelId::XCoreLruAlg2;
    cfg.mode = channel::SharingMode::CrossCore;
    cfg.llc_policy = ReplPolicyKind::TreePlru;
    cfg.d = 12;
    cfg.tr = 3000;
    cfg.ts = 30000;
    return cfg;
}

/** A small topology so eviction pressure is cheap to create. */
MultiCoreConfig
tinyConfig(std::uint32_t cores = 2)
{
    MultiCoreConfig cfg;
    cfg.cores = cores;
    // 2-way, 4-set L1; 4-way, 8-set L2; 8-way, 16-set LLC.
    cfg.l1 = CacheConfig{"L1D", 2 * 4 * 64, 2, 64,
                         ReplPolicyKind::TreePlru, 0};
    cfg.l2 = CacheConfig{"L2", 4 * 8 * 64, 4, 64,
                         ReplPolicyKind::TreePlru, 0};
    cfg.llc = CacheConfig{"LLC", 8 * 16 * 64, 8, 64,
                          ReplPolicyKind::TrueLru, 0};
    return cfg;
}

/** i-th distinct line mapping to @p set of the tiny LLC. */
Addr
llcLine(const MultiCoreHierarchy &h, std::uint32_t set, std::uint32_t i)
{
    return lineInSet(h.llc().layout(), set, i);
}

} // namespace

TEST(MultiCoreHierarchy, MissFillsPrivateAndSharedLevels)
{
    MultiCoreHierarchy h(tinyConfig());
    const MemRef ref = MemRef::load(llcLine(h, 3, 0), 0);

    const auto first = h.access(0, ref);
    EXPECT_EQ(first.level, HitLevel::Memory);
    EXPECT_TRUE(first.llc_filled);
    EXPECT_TRUE(h.l1(0).contains(ref));
    EXPECT_TRUE(h.l2(0).contains(ref));
    EXPECT_TRUE(h.inLlc(ref));
    // The other core's private caches are untouched.
    EXPECT_FALSE(h.l1(1).contains(ref));

    EXPECT_EQ(h.access(0, ref).level, HitLevel::L1);
}

TEST(MultiCoreHierarchy, CrossCoreReadHitsLlcNotPrivate)
{
    MultiCoreHierarchy h(tinyConfig());
    const Addr line = llcLine(h, 3, 0);
    h.access(0, MemRef::load(line, 0));

    // Core 1 misses privately but finds the line in the shared LLC.
    const auto res = h.access(1, MemRef::load(line, 1));
    EXPECT_EQ(res.level, HitLevel::LLC);
    EXPECT_TRUE(h.l1(1).contains(MemRef::load(line, 1)));
}

TEST(MultiCoreHierarchy, LlcEvictionBackInvalidatesEveryCore)
{
    MultiCoreHierarchy h(tinyConfig(3));
    const Addr victim = llcLine(h, 5, 0);

    // Both cores cache the victim line privately.
    h.access(0, MemRef::load(victim, 0));
    h.access(1, MemRef::load(victim, 1));
    ASSERT_TRUE(h.l1(0).contains(MemRef::load(victim)));
    ASSERT_TRUE(h.l1(1).contains(MemRef::load(victim)));

    // Fill LLC set 5 past its 8 ways from core 2.  The victim line is
    // the true-LRU choice, so its eviction must clear both copies.
    for (std::uint32_t i = 1; i <= 8; ++i)
        h.access(2, MemRef::load(llcLine(h, 5, i), 2));

    EXPECT_FALSE(h.inLlc(MemRef::load(victim)));
    EXPECT_FALSE(h.l1(0).contains(MemRef::load(victim)));
    EXPECT_FALSE(h.l1(1).contains(MemRef::load(victim)));
    EXPECT_FALSE(h.l2(0).contains(MemRef::load(victim)));
    EXPECT_FALSE(h.l2(1).contains(MemRef::load(victim)));
    EXPECT_GE(h.backInvalidations(), 4u); // 2 cores x L1+L2
    EXPECT_EQ(h.auditInclusion(), std::nullopt);
}

TEST(MultiCoreHierarchy, DirtyBackInvalidationWritesBackExactlyOnce)
{
    MultiCoreHierarchy h(tinyConfig(3));
    const Addr victim = llcLine(h, 5, 0);

    // Core 0 dirties the line, so its L1, L2 and the LLC all hold a
    // copy (L1's is the dirty one); core 1 holds clean copies.
    h.access(0, MemRef::store(victim, 0));
    h.access(1, MemRef::load(victim, 1));
    ASSERT_EQ(h.dirtyWritebacks(), 0u);

    // Evict the line from LLC set 5 via core 2.  Back-invalidation
    // removes four private copies (two levels x two cores), but the
    // line's data must reach memory exactly once.
    std::uint64_t writebacks_seen = 0;
    for (std::uint32_t i = 1; i <= 8; ++i)
        writebacks_seen +=
            h.access(2, MemRef::load(llcLine(h, 5, i), 2)).writebacks;

    EXPECT_FALSE(h.inLlc(MemRef::load(victim)));
    EXPECT_FALSE(h.l1(0).contains(MemRef::load(victim)));
    EXPECT_EQ(h.dirtyWritebacks(), 1u)
        << "a dirty back-invalidated line must write back exactly once";
    EXPECT_EQ(writebacks_seen, 1u)
        << "the write-back must be charged to the evicting access";
    EXPECT_EQ(h.auditInclusion(), std::nullopt);

    // A second eviction round of the (now clean) set writes back
    // nothing further.
    for (std::uint32_t i = 9; i <= 16; ++i)
        h.access(2, MemRef::load(llcLine(h, 5, i), 2));
    EXPECT_EQ(h.dirtyWritebacks(), 1u);
}

TEST(MultiCoreHierarchy, InclusionHoldsUnderRandomStorm)
{
    MultiCoreHierarchy h(tinyConfig(3));
    Xoshiro256 rng(99);
    for (int i = 0; i < 20'000; ++i) {
        const auto core = static_cast<std::uint32_t>(rng.below(3));
        const Addr line = 0x1000 + rng.below(4096) * 64;
        h.access(core, MemRef::load(line, core));
        if (i % 997 == 0) {
            ASSERT_EQ(h.auditInclusion(), std::nullopt) << "step " << i;
        }
    }
    EXPECT_EQ(h.auditInclusion(), std::nullopt);
    EXPECT_GT(h.backInvalidations(), 0u);
}

TEST(MultiCoreHierarchy, AuditDetectsInjectedViolation)
{
    MultiCoreHierarchy h(tinyConfig());
    const Addr line = llcLine(h, 2, 0);
    h.access(0, MemRef::load(line, 0));
    ASSERT_EQ(h.auditInclusion(), std::nullopt);

    // Break inclusion by removing the line from the LLC only.
    h.llc().flush(MemRef::load(line));
    const auto violation = h.auditInclusion();
    ASSERT_TRUE(violation.has_value());
    EXPECT_NE(violation->find("inclusion violation"), std::string::npos);
    EXPECT_NE(violation->find("core 0"), std::string::npos);
}

TEST(MultiCoreHierarchy, FlushClearsEveryLevelEverywhere)
{
    MultiCoreHierarchy h(tinyConfig());
    const Addr line = llcLine(h, 1, 0);
    h.access(0, MemRef::load(line, 0));
    h.access(1, MemRef::load(line, 1));

    h.flush(MemRef::load(line));
    EXPECT_FALSE(h.inLlc(MemRef::load(line)));
    EXPECT_EQ(h.peekLevel(0, MemRef::load(line)), HitLevel::Memory);
    EXPECT_EQ(h.peekLevel(1, MemRef::load(line)), HitLevel::Memory);
    EXPECT_EQ(h.auditInclusion(), std::nullopt);
}

TEST(MultiCoreHierarchy, ResetClearsStateAndCountersSeparately)
{
    MultiCoreHierarchy h(tinyConfig());
    const MemRef ref = MemRef::load(llcLine(h, 4, 0), 0);
    h.access(0, ref);
    ASSERT_GT(h.l1(0).counters().total().accesses, 0u);

    // resetCounters: tallies go, contents stay.
    h.resetCounters();
    EXPECT_EQ(h.l1(0).counters().total().accesses, 0u);
    EXPECT_EQ(h.llc().counters().total().accesses, 0u);
    EXPECT_TRUE(h.inLlc(ref));

    // reset: everything goes, including the back-invalidation tally.
    h.reset();
    EXPECT_FALSE(h.inLlc(ref));
    EXPECT_EQ(h.peekLevel(0, ref), HitLevel::Memory);
    EXPECT_EQ(h.backInvalidations(), 0u);
    EXPECT_EQ(h.auditInclusion(), std::nullopt);
}

TEST(MultiCoreHierarchy, RejectsZeroCores)
{
    MultiCoreConfig cfg = tinyConfig();
    cfg.cores = 0;
    EXPECT_THROW(MultiCoreHierarchy h(cfg), std::invalid_argument);
}

// ----------------------------------------------------------- scheduler

namespace {

/** Walks a fixed ref sequence, recording the serving levels. */
class WalkProgram : public exec::ThreadProgram
{
  public:
    explicit WalkProgram(std::vector<MemRef> refs)
        : refs_(std::move(refs))
    {}

    exec::Op
    next(std::uint64_t) override
    {
        if (index_ >= refs_.size())
            return exec::Op::done();
        return exec::Op::access(refs_[index_++]);
    }

    void
    onResult(const exec::OpResult &result) override
    {
        levels.push_back(result.level);
    }

    std::vector<HitLevel> levels;

  private:
    std::vector<MemRef> refs_;
    std::size_t index_ = 0;
};

} // namespace

TEST(MultiCoreScheduler, EveryStepAuditPassesOnChannelTraffic)
{
    // Run a real (tiny) cross-core transmission with the audit walk on
    // after EVERY executed operation: the inclusion property must hold
    // at each step of scheduler interleaving, not just at the end.
    // Algorithm 2 over the shared LLC (the canonical xcoreConfig
    // operating point), the sender on core 0, the receiver on core 1
    // and one noise program on core 2.
    MultiCoreConfig mc;
    mc.cores = 3;
    mc.llc.policy = ReplPolicyKind::TreePlru;
    MultiCoreHierarchy h(mc);
    CacheConfig llc = CacheConfig::intelLlc();
    llc.policy = ReplPolicyKind::TreePlru;
    const channel::ChannelLayout layout(llc, 7, 63);

    channel::SenderConfig sc;
    sc.alg = channel::LruAlgorithm::Alg2Disjoint;
    sc.message = channel::alternatingBits(4);
    sc.ts = 30000;
    channel::ReceiverConfig rc;
    rc.alg = channel::LruAlgorithm::Alg2Disjoint;
    rc.d = 12;
    rc.tr = 3000;
    rc.max_samples = 4 * 30000 / 3000 + 8;
    channel::LruSender sender(layout, sc);
    channel::LruReceiver receiver(layout, rc);
    exec::NoiseProgram noise(exec::NoiseConfig{});

    exec::LowestClock policy;
    exec::EngineConfig ec;
    ec.audit_every = 1;
    exec::Engine engine(h, timing::Uarch::intelXeonE52690(), policy, ec);
    const exec::ThreadSpec specs[] = {
        {&sender, 0}, {&receiver, 1}, {&noise, 2}};
    engine.run(specs, 1); // throws on violation
    EXPECT_FALSE(receiver.samples().empty());
    EXPECT_GT(h.backInvalidations(), 0u);
}

TEST(MultiCoreScheduler, RejectsThreadBoundToMissingCore)
{
    MultiCoreHierarchy h(tinyConfig(3));
    WalkProgram a({}), b({});
    exec::LowestClock policy;
    exec::Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    const exec::ThreadSpec specs[] = {{&a, 0}, {&b, 3}}; // core 3 of 0..2
    EXPECT_THROW(engine.run(specs, 0), std::invalid_argument);
}

TEST(MultiCoreScheduler, DeterministicForFixedSeed)
{
    auto run = [] {
        auto cfg = xcoreConfig();
        cfg.noise_cores = 2;
        cfg.message = channel::randomBits(16, 7);
        cfg.seed = 21;
        return channel::runSession(cfg);
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].latency, b.samples[i].latency) << i;
        EXPECT_EQ(a.samples[i].tsc, b.samples[i].tsc) << i;
    }
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.back_invalidations, b.back_invalidations);
}

// -------------------------------------------------- cross-core channel

TEST(XCoreChannel, TransmitsThroughSharedLlc)
{
    auto cfg = xcoreConfig();
    cfg.message = channel::randomBits(24, 3);
    cfg.repeats = 2;
    const auto res = channel::runSession(cfg);

    EXPECT_EQ(res.cores, 2u);
    EXPECT_EQ(res.sent.size(), 48u);
    EXPECT_LT(res.error_rate, 0.15) << "noise-free cross-core channel "
                                       "should transmit reliably";
    EXPECT_GT(res.kbps, 0.0);
    // The loop-closer: receiver walks must keep kicking the sender's
    // line out of the sender's private caches.
    EXPECT_GT(res.back_invalidations, 0u);
    // The sender's encoding accesses miss its private L1 (they reach
    // the shared LLC) — the stealth profile differs from the L1 channel.
    EXPECT_GT(res.sender_llc.accesses, 0u);
}

TEST(XCoreChannel, ErrorDegradesWithNoiseCoresOnAverage)
{
    // Mean error over a few runs per noise level; monotone on average.
    auto meanError = [](std::uint32_t noise) {
        double sum = 0;
        for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
            auto cfg = xcoreConfig();
            cfg.noise_cores = noise;
            cfg.ts = 15000;
            cfg.message = channel::randomBits(32, 40 + seed);
            cfg.seed = seed;
            sum += channel::runSession(cfg).error_rate;
        }
        return sum / 3;
    };
    const double e0 = meanError(0);
    const double e3 = meanError(3);
    EXPECT_GE(e3 + 1e-9, e0)
        << "3 noise cores must not make the channel cleaner on average";
}

TEST(XCoreChannel, BackInvalidationIsWhatClosesTheLoop)
{
    // Ablation: with a huge LLC set count nothing collides, and with
    // the channel set shared, the receiver's walk is what causes the
    // sender's line to leave its private cache.  Compare sender L1
    // misses with and without a running receiver walk.
    auto cfg = xcoreConfig();
    cfg.message = channel::alternatingBits(8);
    const auto res = channel::runSession(cfg);
    // If the sender's line were never back-invalidated, every encode
    // access after the first would hit its private L1 and the sender
    // would be invisible at the LLC; the channel would decode garbage.
    EXPECT_GT(res.sender_l1.misses, res.sent.size() / 2)
        << "sender must keep missing privately (back-invalidation)";
}

TEST(XCoreChannel, TopologyReflectsNoiseCores)
{
    // Every noise core becomes a real simulated core beyond the pair.
    auto cfg = xcoreConfig();
    cfg.noise_cores = 3;
    cfg.message = channel::alternatingBits(4);
    const auto res = channel::runSession(cfg);
    EXPECT_EQ(res.cores, 5u);
}
