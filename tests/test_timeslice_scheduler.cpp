/**
 * @file
 * Tests for the time-sliced execution model (exec::Engine under the
 * TimeSlice policy): quantum rotation, kernel noise, timer ticks, and
 * spin handling across slices.
 */

#include <gtest/gtest.h>

#include <vector>

#include "exec/engine.hpp"
#include "sim/hierarchy.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::exec;

namespace {

/** Records the TSC of every op it issues. */
class StampingProgram : public ThreadProgram
{
  public:
    StampingProgram(sim::Addr addr, std::size_t limit)
        : addr_(addr), limit_(limit)
    {}

    Op
    next(std::uint64_t now) override
    {
        if (stamps_.size() >= limit_)
            return Op::done();
        stamps_.push_back(now);
        return Op::access(sim::MemRef::load(addr_, threadId()));
    }

    std::vector<std::uint64_t> stamps_;

  private:
    sim::Addr addr_;
    std::size_t limit_;
};

TimeSlicePolicyConfig
quietConfig()
{
    TimeSlicePolicyConfig cfg;
    cfg.background_prob = 0.0;
    cfg.kernel_noise_lines = 0;
    cfg.tick_lines = 0;
    return cfg;
}

/** Engine + policy bundle for the two-program sliced shape. */
class TimeSliceRig
{
  public:
    TimeSliceRig(sim::CacheHierarchy &hierarchy,
                 TimeSlicePolicyConfig policy_config,
                 EngineConfig engine_config = {})
        : policy_(policy_config),
          engine_(hierarchy, timing::Uarch::intelXeonE52690(), policy_,
                  engine_config)
    {}

    std::uint64_t
    run(ThreadProgram &thread0, ThreadProgram &thread1, unsigned primary)
    {
        return engine_.run(thread0, thread1, primary);
    }

  private:
    TimeSlice policy_;
    Engine engine_;
};

} // namespace

TEST(TimeSlice, ThreadsAlternateByQuantum)
{
    sim::CacheHierarchy h;
    TimeSlicePolicyConfig cfg = quietConfig();
    cfg.quantum = 100'000;
    cfg.quantum_jitter = 0;
    TimeSliceRig rig(h, cfg);

    StampingProgram a(0x1000, 1'000'000);
    StampingProgram b(0x2000, 20'000); // spans several slices
    rig.run(a, b, 1);

    // While B runs its slice, A must not issue: check that A's stamps
    // have a gap of at least one quantum somewhere.
    std::uint64_t max_gap = 0;
    for (std::size_t i = 1; i < a.stamps_.size(); ++i)
        max_gap = std::max(max_gap, a.stamps_[i] - a.stamps_[i - 1]);
    EXPECT_GE(max_gap, cfg.quantum);
}

TEST(TimeSlice, PrimaryDoneStopsRun)
{
    sim::CacheHierarchy h;
    TimeSliceRig rig(h, quietConfig());
    StampingProgram a(0x1000, 1'000'000); // effectively endless
    StampingProgram b(0x2000, 10);
    rig.run(a, b, 1);
    EXPECT_EQ(b.stamps_.size(), 10u);
}

TEST(TimeSlice, KernelNoisePollutesCaches)
{
    sim::CacheHierarchy h;
    TimeSlicePolicyConfig cfg = quietConfig();
    cfg.kernel_noise_lines = 64;
    cfg.quantum = 50'000;
    TimeSliceRig rig(h, cfg);
    StampingProgram a(0x1000, 20'000);
    StampingProgram b(0x2000, 100);
    rig.run(a, b, 1);
    const auto kstats = h.l1().counters().forThread(cfg.kernel_thread);
    EXPECT_GT(kstats.accesses, 0u);
}

TEST(TimeSlice, TicksFireWhileSpinning)
{
    sim::CacheHierarchy h;
    TimeSlicePolicyConfig cfg = quietConfig();
    cfg.tick_period = 10'000;
    cfg.tick_lines = 8;
    TimeSliceRig rig(h, cfg);

    // One program spins for a long time; ticks must still pollute.
    class Sleeper : public ThreadProgram
    {
      public:
        Op
        next(std::uint64_t now) override
        {
            if (done_)
                return Op::done();
            done_ = true;
            return Op::spinUntil(now + 400'000);
        }

      private:
        bool done_ = false;
    } sleeper;
    StampingProgram other(0x2000, 1);
    rig.run(other, sleeper, 1);

    const auto kstats = h.l1().counters().forThread(cfg.kernel_thread);
    EXPECT_GT(kstats.accesses, 8u);
}

TEST(TimeSlice, BackgroundProcessStealsSlices)
{
    sim::CacheHierarchy h;
    TimeSlicePolicyConfig cfg = quietConfig();
    cfg.background_prob = 1.0; // every contested slice goes to background
    cfg.background_lines = 64;
    cfg.quantum = 20'000;
    StampingProgram a(0x1000, 10);
    StampingProgram b(0x2000, 10);
    // With background_prob = 1 neither a nor b ever runs; cap the run.
    EngineConfig ec;
    ec.max_cycles = 1'000'000;
    TimeSliceRig capped(h, cfg, ec);
    capped.run(a, b, 1);
    EXPECT_EQ(b.stamps_.size(), 0u);
    const auto bg = h.l1().counters().forThread(cfg.background_thread);
    EXPECT_GT(bg.accesses, 0u);
}

TEST(TimeSlice, SpinCompletesAcrossSlices)
{
    sim::CacheHierarchy h;
    TimeSlicePolicyConfig cfg = quietConfig();
    cfg.quantum = 10'000;
    cfg.quantum_jitter = 0;
    TimeSliceRig rig(h, cfg);

    class SleepThenAccess : public ThreadProgram
    {
      public:
        Op
        next(std::uint64_t now) override
        {
            if (state_ == 0) {
                state_ = 1;
                return Op::spinUntil(now + 100'000); // spans ~10 slices
            }
            if (state_ == 1) {
                state_ = 2;
                wake_ = now;
                return Op::access(sim::MemRef::load(0x40, threadId()));
            }
            return Op::done();
        }

        int state_ = 0;
        std::uint64_t wake_ = 0;
    } sleeper;

    StampingProgram other(0x2000, 1'000'000);
    rig.run(other, sleeper, 1);
    EXPECT_GE(sleeper.wake_, 100'000u);
}

TEST(TimeSlice, DeterministicForSeed)
{
    auto run = [](std::uint64_t seed) {
        sim::CacheHierarchy h;
        TimeSlicePolicyConfig cfg;
        cfg.quantum = 30'000;
        EngineConfig ec;
        ec.seed = seed;
        TimeSliceRig rig(h, cfg, ec);
        StampingProgram a(0x1000, 100'000);
        StampingProgram b(0x2000, 50);
        return rig.run(a, b, 1);
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}
