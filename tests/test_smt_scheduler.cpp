/**
 * @file
 * Tests for the SMT (hyper-threaded) execution model: exec::Engine
 * driving two programs on one core under LowestClock, whose bare
 * threads are the production hyper-threaded schedule.
 */

#include <gtest/gtest.h>

#include <vector>

#include "exec/engine.hpp"
#include "sim/hierarchy.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::exec;

namespace {

/** Static chain storage: Op::chain_levels views it (spans don't own). */
const std::vector<sim::HitLevel> kChain7(7, sim::HitLevel::L1);
const std::vector<sim::HitLevel> kChain1(1, sim::HitLevel::L1);

/** Issues a fixed list of ops, then Done; records results. */
class ScriptProgram : public ThreadProgram
{
  public:
    explicit ScriptProgram(std::vector<Op> ops) : ops_(std::move(ops)) {}

    Op
    next(std::uint64_t now) override
    {
        last_now_ = now;
        if (index_ >= ops_.size())
            return Op::done();
        return ops_[index_++];
    }

    void
    onResult(const OpResult &result) override
    {
        results_.push_back(result);
    }

    std::vector<OpResult> results_;
    std::uint64_t last_now_ = 0;

  private:
    std::vector<Op> ops_;
    std::size_t index_ = 0;
};

/** Accesses one address forever. */
class SpinAccessProgram : public ThreadProgram
{
  public:
    explicit SpinAccessProgram(sim::Addr addr) : addr_(addr) {}

    Op
    next(std::uint64_t) override
    {
        ++issued_;
        return Op::access(sim::MemRef::load(addr_, threadId()));
    }

    std::uint64_t issued_ = 0;

  private:
    sim::Addr addr_;
};

/** Engine + policy bundle for the two-program SMT shape. */
class SmtRig
{
  public:
    explicit SmtRig(sim::CacheHierarchy &hierarchy, EngineConfig config = {})
        : engine_(hierarchy, timing::Uarch::intelXeonE52690(), policy_, config)
    {}

    std::uint64_t
    run(ThreadProgram &thread0, ThreadProgram &thread1, unsigned primary)
    {
        return engine_.run(thread0, thread1, primary);
    }

  private:
    LowestClock policy_;
    Engine engine_;
};

} // namespace

TEST(SmtScheduler, RunsUntilPrimaryDone)
{
    sim::CacheHierarchy h;
    SmtRig rig(h);
    ScriptProgram receiver({Op::access(sim::MemRef::load(0x40)),
                            Op::access(sim::MemRef::load(0x80))});
    SpinAccessProgram sender(0x4000);
    rig.run(sender, receiver, 1);
    EXPECT_EQ(receiver.results_.size(), 2u);
    // The sender ran too but did not block completion.
    EXPECT_GT(sender.issued_, 0u);
}

TEST(SmtScheduler, DeliversHitLevels)
{
    sim::CacheHierarchy h;
    SmtRig rig(h);
    ScriptProgram a({Op::access(sim::MemRef::load(0x40)),
                     Op::access(sim::MemRef::load(0x40))});
    ScriptProgram b({});
    rig.run(b, a, 1);
    ASSERT_EQ(a.results_.size(), 2u);
    EXPECT_EQ(a.results_[0].level, sim::HitLevel::Memory);
    EXPECT_EQ(a.results_[1].level, sim::HitLevel::L1);
}

TEST(SmtScheduler, SpinAdvancesClock)
{
    sim::CacheHierarchy h;
    SmtRig rig(h);
    ScriptProgram a({Op::spinUntil(100'000),
                     Op::access(sim::MemRef::load(0x40))});
    ScriptProgram b({});
    rig.run(b, a, 1);
    ASSERT_EQ(a.results_.size(), 1u);
    EXPECT_GE(a.results_[0].tsc, 100'000u);
}

TEST(SmtScheduler, StaleSpinDeadlineStillProgresses)
{
    sim::CacheHierarchy h;
    SmtRig rig(h);
    // Deadline 0 is already past; the engine must not livelock.
    ScriptProgram a({Op::spinUntil(0), Op::spinUntil(0),
                     Op::access(sim::MemRef::load(0x40))});
    ScriptProgram b({});
    const auto end = rig.run(b, a, 1);
    EXPECT_EQ(a.results_.size(), 1u);
    EXPECT_LT(end, 10'000u);
}

TEST(SmtScheduler, BothThreadsShareTheCache)
{
    sim::CacheHierarchy h;
    SmtRig rig(h);
    // Thread 0 fetches a line; thread 1 then hits on the same line.
    ScriptProgram warm({Op::access(sim::MemRef::load(0x40, 0))});
    ScriptProgram probe({Op::spinUntil(10'000),
                         Op::access(sim::MemRef::load(0x40, 1))});
    rig.run(warm, probe, 1);
    ASSERT_EQ(probe.results_.size(), 1u);
    EXPECT_EQ(probe.results_[0].level, sim::HitLevel::L1);
}

TEST(SmtScheduler, MeasureUsesChainLevels)
{
    sim::CacheHierarchy h;
    SmtRig rig(h);
    h.access(sim::MemRef::load(0x40)); // target warm in L1
    ScriptProgram a({Op::measure(sim::MemRef::load(0x40), kChain7)});
    ScriptProgram b({});
    rig.run(b, a, 1);
    ASSERT_EQ(a.results_.size(), 1u);
    EXPECT_EQ(a.results_[0].kind, OpKind::Measure);
    // ~ chase_overhead + 8 * L1 = 35 cycles on the E5-2690 model.
    EXPECT_NEAR(a.results_[0].measured, 35.0, 6.0);
}

TEST(SmtScheduler, FlushOpFlushesAllLevels)
{
    sim::CacheHierarchy h;
    SmtRig rig(h);
    const auto ref = sim::MemRef::load(0x40);
    h.access(ref);
    ScriptProgram a({Op::flush(ref)});
    ScriptProgram b({});
    rig.run(b, a, 1);
    EXPECT_FALSE(h.inAnyLevel(ref));
}

TEST(SmtScheduler, DeterministicForSeed)
{
    auto run = [](std::uint64_t seed) {
        sim::CacheHierarchy h;
        EngineConfig cfg;
        cfg.seed = seed;
        SmtRig rig(h, cfg);
        ScriptProgram a({Op::access(sim::MemRef::load(0x40)),
                         Op::access(sim::MemRef::load(0x80)),
                         Op::measure(sim::MemRef::load(0x40), kChain1)});
        ScriptProgram b({});
        rig.run(b, a, 1);
        return a.results_.back().measured;
    };
    EXPECT_EQ(run(5), run(5));
}

TEST(SmtScheduler, InterleavingIsFineGrained)
{
    // Both threads must make progress in overlapping time, not strictly
    // one after the other.
    sim::CacheHierarchy h;
    SmtRig rig(h);
    SpinAccessProgram sender(0x8000);
    ScriptProgram receiver({Op::spinUntil(5'000),
                            Op::access(sim::MemRef::load(0x40))});
    rig.run(sender, receiver, 1);
    // In 5000 cycles at ~15 cycles/op the sender gets many ops in.
    EXPECT_GT(sender.issued_, 100u);
}

TEST(SmtScheduler, MaxCyclesStopsRunawayRuns)
{
    sim::CacheHierarchy h;
    EngineConfig cfg;
    cfg.max_cycles = 50'000;
    SmtRig rig(h, cfg);
    SpinAccessProgram forever_a(0x1000);
    SpinAccessProgram forever_b(0x2000);
    const auto end = rig.run(forever_a, forever_b, 1);
    EXPECT_LE(end, 60'000u);
}
