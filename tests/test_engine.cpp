/**
 * @file
 * Unit tests of the execution engine proper: thread/core binding
 * validation, the inclusion audit, policy nesting, the generalisations the seed
 * schedulers did not have (TimeSlice over N threads, TimeSlice per core
 * under LowestClock, an SMT pair of bare threads on one core of a
 * multi-core system), the consolidated exec::ThreadStats telemetry,
 * the two-program shapes on one core (the hyper-threaded pair under
 * LowestClock, suite SmtScheduler; quantum rotation, kernel noise,
 * timer ticks and spins across slices under TimeSlice), and
 * Engine::executeOp's contract for every op kind: its cost, the
 * OpResult, the ThreadStats delta and its RNG draws in order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "exec/engine.hpp"
#include "per_op_policy.hpp"
#include "same_topology.hpp"
#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "timing/pointer_chase.hpp"
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

/** Issues a fixed list of ops, then Done; records results. */
class ScriptProgram : public ThreadProgram
{
  public:
    explicit ScriptProgram(std::vector<Op> ops = {}) : ops_(std::move(ops)) {}

    Op
    next(std::uint64_t) override
    {
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

  private:
    std::vector<Op> ops_;
    std::size_t index_ = 0;
};

/** A StampingProgram limit no run reaches. */
constexpr std::size_t kEndless = ~std::size_t{0};

/** Static chain storage: Op::chain_levels views it (spans don't own). */
const std::vector<sim::HitLevel> kChain7(7, sim::HitLevel::L1);
const std::vector<sim::HitLevel> kChain1(1, sim::HitLevel::L1);

/** The default slice length and jitter. */
constexpr std::uint64_t kQuantum = TimeSlicePolicyConfig{}.quantum;
constexpr std::uint64_t kJitter = TimeSlicePolicyConfig{}.quantum_jitter;

/** No kernel noise, ticks or background process; slices of @p quantum
 *  cycles plus up to @p jitter. */
TimeSlicePolicyConfig
quietSlices(std::uint64_t quantum, std::uint64_t jitter = 0)
{
    TimeSlicePolicyConfig pc;
    pc.quantum = quantum;
    pc.quantum_jitter = jitter;
    pc.background_prob = 0.0;
    pc.kernel_noise_lines = 0;
    pc.tick_lines = 0;
    return pc;
}

TEST(Engine, RejectsBadBindings)
{
    sim::CacheHierarchy h;
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);

    StampingProgram a(0x40, 1);
    EXPECT_THROW(engine.run({}, 0), std::invalid_argument);
    {
        const ThreadSpec specs[] = {{&a, 0}};
        EXPECT_THROW(engine.run(specs, 5), std::invalid_argument);
    }
    {
        const ThreadSpec specs[] = {{&a, 3}}; // single-core hierarchy
        EXPECT_THROW(engine.run(specs, 0), std::invalid_argument);
    }
    {
        const ThreadSpec specs[] = {{nullptr, 0}};
        EXPECT_THROW(engine.run(specs, 0), std::invalid_argument);
    }
}

TEST(Engine, InclusionAuditThrowsOnViolation)
{
    // Core 0's L1 holds a line whose LLC copy is gone; the engine's
    // sampled audit must report it after one op of an unrelated thread.
    const auto runOneOp = [](std::uint32_t audit_every) {
        sim::MultiCoreHierarchy h(sim::MultiCoreConfig{.cores = 2});
        const sim::Addr line = 0x40;
        h.access(0, sim::MemRef::load(line, 0));
        h.llc().invalidateLine(line);
        EXPECT_TRUE(h.auditInclusion().has_value());

        LowestClock policy;
        EngineConfig ec;
        ec.audit_every = audit_every;
        Engine engine(h, timing::Uarch::intelXeonE52690(), policy, ec);
        StampingProgram other(0x10000, 1);
        const ThreadSpec specs[] = {{&other, 1}};
        engine.run(specs, 0);
        EXPECT_EQ(engine.stats(0).accesses, 1u);
    };
    EXPECT_THROW(runOneOp(1), std::logic_error);
    EXPECT_NO_THROW(runOneOp(0));
}

TEST(Engine, ThreadStatsCountOpsAndCycles)
{
    sim::CacheHierarchy h;
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);

    ScriptProgram mixed({Op::access(sim::MemRef::load(0x40)),
                         Op::flush(sim::MemRef::load(0x40)),
                         Op::spinUntil(10'000),
                         Op::measure(sim::MemRef::load(0x40), kChain1)});
    StampingProgram other(0x80, 1);
    engine.run(mixed, other, /*primary=*/0);

    const ThreadStats &stats = engine.stats(0);
    EXPECT_EQ(stats.accesses, 1u);
    EXPECT_EQ(stats.flushes, 1u);
    EXPECT_EQ(stats.spins, 1u);
    EXPECT_EQ(stats.measures, 1u);
    EXPECT_EQ(stats.memoryOps(), 3u);
    EXPECT_EQ(stats.totalOps(), 4u);
    EXPECT_GT(stats.busy_cycles, 0u);
}

TEST(TimeSlicePolicy, RotatesThreeThreads)
{
    // The seed scheduler was hard-wired to two threads; the policy
    // rotates any number round-robin.
    sim::CacheHierarchy h;
    TimeSlice policy(quietSlices(10'000));
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);

    StampingProgram a(0x1000, 100'000);
    StampingProgram b(0x2000, 100'000);
    StampingProgram c(0x3000, 600);
    const ThreadSpec specs[] = {{&a, 0}, {&b, 0}, {&c, 0}};
    engine.run(specs, /*primary=*/2);

    EXPECT_EQ(c.stamps_.size(), 600u);
    // All three made progress, in disjoint slices.
    EXPECT_GT(a.stamps_.size(), 0u);
    EXPECT_GT(b.stamps_.size(), 0u);
}

TEST(TimeSlicePolicy, RejectsThreadsOnDifferentCores)
{
    sim::MultiCoreHierarchy h(sim::MultiCoreConfig{.cores = 2});
    TimeSlice policy(quietSlices(10'000));
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);

    StampingProgram a(0x1000, 10), b(0x2000, 10);
    const ThreadSpec specs[] = {{&a, 0}, {&b, 1}};
    EXPECT_THROW(engine.run(specs, 1), std::invalid_argument);
}

TEST(LowestClock, RejectsDuplicateNest)
{
    LowestClock policy;
    policy.nest(0, std::make_unique<TimeSlice>());
    EXPECT_THROW(policy.nest(0, std::make_unique<TimeSlice>()),
                 std::logic_error);
}

TEST(LowestClock, SmtGroupSharesOneCoreOfMultiCore)
{
    // Two bare threads on core 0 plus one on core 1: the pair shares
    // core 0's private L1, the third does not see it.
    sim::MultiCoreHierarchy h(sim::MultiCoreConfig{.cores = 2});
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);

    StampingProgram warm(0x40, 200);
    StampingProgram sibling(0x40, 100);
    StampingProgram other(0x40, 100);
    const ThreadSpec specs[] = {{&warm, 0}, {&sibling, 0}, {&other, 1}};
    engine.run(specs, /*primary=*/1);

    // The sibling hits core 0's L1 (warmed by thread 0); the core-1
    // thread misses its own private L1 first and is served by the
    // shared LLC after the first fill.
    const auto sib = h.l1(0).counters().forThread(1);
    EXPECT_GT(sib.accesses, 0u);
    EXPECT_LT(sib.missRate(), 0.1);
    const auto oth = h.l1(1).counters().forThread(2);
    EXPECT_GT(oth.accesses, 0u);
}

TEST(LowestClock, TimeSlicedCoresInterleaveOnSharedLlc)
{
    // TimeSlice nests per core: both cores make progress and their
    // kernel bursts land in per-core thread ids.
    sim::MultiCoreHierarchy h(sim::MultiCoreConfig{.cores = 2});

    TimeSlicePolicyConfig t0 = quietSlices(5'000);
    t0.kernel_noise_lines = 8;
    t0.kernel_thread = 1000;
    TimeSlicePolicyConfig t1 = quietSlices(5'000);
    t1.kernel_noise_lines = 8;
    t1.kernel_thread = 1002;

    LowestClock policy;
    policy.nest(0, std::make_unique<TimeSlice>(t0));
    policy.nest(1, std::make_unique<TimeSlice>(t1));
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);

    StampingProgram a(0x1000, 100'000);
    StampingProgram b(0x2000, 2'000);
    const ThreadSpec specs[] = {{&a, 0}, {&b, 1}};
    engine.run(specs, /*primary=*/1);

    EXPECT_EQ(b.stamps_.size(), 2'000u);
    EXPECT_GT(a.stamps_.size(), 0u);
    // Each core's kernel noise is attributed to its own thread id and
    // issued from its own core.
    EXPECT_GT(h.l1(0).counters().forThread(1000).accesses, 0u);
    EXPECT_GT(h.l1(1).counters().forThread(1002).accesses, 0u);
    EXPECT_EQ(h.l1(1).counters().forThread(1000).accesses, 0u);
}

TEST(LowestClock, DefaultLeavesMatchCoreOrder)
{
    // Without explicit nesting, each core gets a leaf and stepping is
    // globally lowest-clock: with identical programs the cores finish
    // within one op of each other.
    sim::MultiCoreHierarchy h(sim::MultiCoreConfig{.cores = 3});
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);

    StampingProgram a(0x1000, 500), b(0x1000, 500), c(0x1000, 500);
    const ThreadSpec specs[] = {{&a, 0}, {&b, 1}, {&c, 2}};
    engine.run(specs, /*primary=*/0);
    EXPECT_EQ(a.stamps_.size(), 500u);
    EXPECT_GE(b.stamps_.size(), 499u);
    EXPECT_GE(c.stamps_.size(), 499u);
}

TEST(LowestClock, BareThreadsStepLikeExplicitRoundRobinChildren)
{
    // Cores without a nested policy step their threads inline, running
    // ahead; that must replay exactly what an explicit per-op child per
    // core does: same op order (ties toward the lower core, then spec
    // order), same stop at max_cycles, beside a nested TimeSlice core.
    const auto run = [](bool explicit_children) {
        compare::RunEnd out(sim::MultiCoreConfig{.cores = 4});
        LowestClock policy;
        if (explicit_children) {
            for (std::uint32_t core : {0u, 1u, 3u})
                policy.nest(core,
                            std::make_unique<reference::PerOpLowestClock>());
        }
        const TimeSlicePolicyConfig slices = quietSlices(3'000);
        policy.nest(2, std::make_unique<TimeSlice>(slices));
        Engine engine(out.multiCore(), timing::Uarch::intelXeonE52690(),
                      policy, EngineConfig{.max_cycles = 60'000});

        std::vector<ThreadSpec> specs;
        const std::uint32_t cores[] = {3, 0, 0, 1, 2, 0};
        const sim::Addr addrs[] = {0x1000, 0x1000, 0x2040,
                                   0x3080, 0x4000, 0x50c0};
        for (std::size_t i = 0; i < 6; ++i)
            specs.push_back(ThreadSpec{
                &out.own(std::make_unique<StampingProgram>(addrs[i],
                                                           1'000'000)),
                cores[i]});
        engine.run(specs, /*primary=*/2);
        out.record(engine, {slices.kernel_thread, slices.background_thread});
        return out;
    };
    const compare::RunEnd bare = run(false);
    const compare::RunEnd nested = run(true);
    compare::expectSameRun(bare, nested);
    EXPECT_GE(bare.tsc, 60'000u); // stopped by max_cycles
    for (std::size_t i = 0; i < bare.programCount(); ++i) {
        const auto &stamps = bare.program<StampingProgram>(i)->stamps_;
        EXPECT_GT(stamps.size(), 0u) << "thread " << i;
        EXPECT_EQ(stamps, nested.program<StampingProgram>(i)->stamps_)
            << "thread " << i;
    }
}

TEST(Engine, DeterministicForSeed)
{
    auto run = [](std::uint64_t seed) {
        sim::CacheHierarchy h;
        LowestClock policy;
        EngineConfig ec;
        ec.seed = seed;
        Engine engine(h, timing::Uarch::intelXeonE52690(), policy, ec);
        StampingProgram a(0x1000, 5'000);
        StampingProgram b(0x2000, 1'000);
        return engine.run(a, b, 1);
    };
    EXPECT_EQ(run(3), run(3));
}

// ------------------------------------------- two programs, one core

TEST(SmtScheduler, RunsUntilPrimaryDone)
{
    sim::CacheHierarchy h;
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    ScriptProgram receiver({Op::access(sim::MemRef::load(0x40)),
                            Op::access(sim::MemRef::load(0x80))});
    StampingProgram sender(0x4000, kEndless);
    engine.run(sender, receiver, 1);
    EXPECT_EQ(receiver.results_.size(), 2u);
    // The sender ran too but did not block completion.
    EXPECT_GT(sender.stamps_.size(), 0u);
}

TEST(SmtScheduler, DeliversHitLevels)
{
    sim::CacheHierarchy h;
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    ScriptProgram a({Op::access(sim::MemRef::load(0x40)),
                     Op::access(sim::MemRef::load(0x40))});
    ScriptProgram b;
    engine.run(b, a, 1);
    ASSERT_EQ(a.results_.size(), 2u);
    EXPECT_EQ(a.results_[0].level, sim::HitLevel::Memory);
    EXPECT_EQ(a.results_[1].level, sim::HitLevel::L1);
}

TEST(SmtScheduler, SpinAdvancesClock)
{
    sim::CacheHierarchy h;
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    ScriptProgram a({Op::spinUntil(100'000),
                     Op::access(sim::MemRef::load(0x40))});
    ScriptProgram b;
    engine.run(b, a, 1);
    ASSERT_EQ(a.results_.size(), 1u);
    EXPECT_GE(a.results_[0].tsc, 100'000u);
}

TEST(SmtScheduler, StaleSpinDeadlineStillProgresses)
{
    sim::CacheHierarchy h;
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    // Deadline 0 is already past; the engine must not livelock.
    ScriptProgram a({Op::spinUntil(0), Op::spinUntil(0),
                     Op::access(sim::MemRef::load(0x40))});
    ScriptProgram b;
    const auto end = engine.run(b, a, 1);
    EXPECT_EQ(a.results_.size(), 1u);
    EXPECT_LT(end, 10'000u);
}

TEST(SmtScheduler, BothThreadsShareTheCache)
{
    sim::CacheHierarchy h;
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    // Thread 0 fetches a line; thread 1 then hits on the same line.
    ScriptProgram warm({Op::access(sim::MemRef::load(0x40, 0))});
    ScriptProgram probe({Op::spinUntil(10'000),
                         Op::access(sim::MemRef::load(0x40, 1))});
    engine.run(warm, probe, 1);
    ASSERT_EQ(probe.results_.size(), 1u);
    EXPECT_EQ(probe.results_[0].level, sim::HitLevel::L1);
}

TEST(SmtScheduler, MeasureUsesChainLevels)
{
    sim::CacheHierarchy h;
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    h.access(sim::MemRef::load(0x40)); // target warm in L1
    ScriptProgram a({Op::measure(sim::MemRef::load(0x40), kChain7)});
    ScriptProgram b;
    engine.run(b, a, 1);
    ASSERT_EQ(a.results_.size(), 1u);
    EXPECT_EQ(a.results_[0].kind, OpKind::Measure);
    // ~ chase_overhead + 8 * L1 = 35 cycles on the E5-2690 model.
    EXPECT_NEAR(a.results_[0].measured, 35.0, 6.0);
}

TEST(SmtScheduler, FlushOpFlushesAllLevels)
{
    sim::CacheHierarchy h;
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    const auto ref = sim::MemRef::load(0x40);
    h.access(ref);
    ScriptProgram a({Op::flush(ref)});
    ScriptProgram b;
    engine.run(b, a, 1);
    EXPECT_FALSE(h.inAnyLevel(ref));
}

TEST(SmtScheduler, DeterministicForSeed)
{
    auto run = [](std::uint64_t seed) {
        sim::CacheHierarchy h;
        LowestClock policy;
        EngineConfig cfg;
        cfg.seed = seed;
        Engine engine(h, timing::Uarch::intelXeonE52690(), policy, cfg);
        ScriptProgram a({Op::access(sim::MemRef::load(0x40)),
                         Op::access(sim::MemRef::load(0x80)),
                         Op::measure(sim::MemRef::load(0x40), kChain1)});
        ScriptProgram b;
        engine.run(b, a, 1);
        return a.results_.back().measured;
    };
    EXPECT_EQ(run(5), run(5));
}

TEST(SmtScheduler, InterleavingIsFineGrained)
{
    // Both threads must make progress in overlapping time, not strictly
    // one after the other.
    sim::CacheHierarchy h;
    LowestClock policy;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    StampingProgram sender(0x8000, kEndless);
    ScriptProgram receiver({Op::spinUntil(5'000),
                            Op::access(sim::MemRef::load(0x40))});
    engine.run(sender, receiver, 1);
    // In 5000 cycles at ~15 cycles/op the sender gets many ops in.
    EXPECT_GT(sender.stamps_.size(), 100u);
}

TEST(SmtScheduler, MaxCyclesStopsRunawayRuns)
{
    sim::CacheHierarchy h;
    LowestClock policy;
    EngineConfig cfg;
    cfg.max_cycles = 50'000;
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy, cfg);
    StampingProgram forever_a(0x1000, kEndless);
    StampingProgram forever_b(0x2000, kEndless);
    const auto end = engine.run(forever_a, forever_b, 1);
    EXPECT_LE(end, 60'000u);
}

TEST(TimeSlice, ThreadsAlternateByQuantum)
{
    sim::CacheHierarchy h;
    const TimeSlicePolicyConfig cfg = quietSlices(100'000);
    TimeSlice policy(cfg);
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);

    StampingProgram a(0x1000, 1'000'000);
    StampingProgram b(0x2000, 20'000); // spans several slices
    engine.run(a, b, 1);

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
    TimeSlice policy(quietSlices(kQuantum, kJitter));
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    StampingProgram a(0x1000, 1'000'000); // effectively endless
    StampingProgram b(0x2000, 10);
    engine.run(a, b, 1);
    EXPECT_EQ(b.stamps_.size(), 10u);
}

TEST(TimeSlice, KernelNoisePollutesCaches)
{
    sim::CacheHierarchy h;
    TimeSlicePolicyConfig cfg = quietSlices(50'000, kJitter);
    cfg.kernel_noise_lines = 64;
    TimeSlice policy(cfg);
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);
    StampingProgram a(0x1000, 20'000);
    StampingProgram b(0x2000, 100);
    engine.run(a, b, 1);
    const auto kstats = h.l1().counters().forThread(cfg.kernel_thread);
    EXPECT_GT(kstats.accesses, 0u);
}

TEST(TimeSlice, TicksFireWhileSpinning)
{
    sim::CacheHierarchy h;
    TimeSlicePolicyConfig cfg = quietSlices(kQuantum, kJitter);
    cfg.tick_period = 10'000;
    cfg.tick_lines = 8;
    TimeSlice policy(cfg);
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);

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
    engine.run(other, sleeper, 1);

    const auto kstats = h.l1().counters().forThread(cfg.kernel_thread);
    EXPECT_GT(kstats.accesses, 8u);
}

TEST(TimeSlice, BackgroundProcessStealsSlices)
{
    sim::CacheHierarchy h;
    TimeSlicePolicyConfig cfg = quietSlices(20'000, kJitter);
    cfg.background_prob = 1.0; // every contested slice goes to background
    cfg.background_lines = 64;
    StampingProgram a(0x1000, 10);
    StampingProgram b(0x2000, 10);
    // With background_prob = 1 neither a nor b ever runs; cap the run.
    EngineConfig ec;
    ec.max_cycles = 1'000'000;
    TimeSlice policy(cfg);
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy, ec);
    engine.run(a, b, 1);
    EXPECT_EQ(b.stamps_.size(), 0u);
    const auto bg = h.l1().counters().forThread(cfg.background_thread);
    EXPECT_GT(bg.accesses, 0u);
}

TEST(TimeSlice, SpinCompletesAcrossSlices)
{
    sim::CacheHierarchy h;
    TimeSlice policy(quietSlices(10'000));
    Engine engine(h, timing::Uarch::intelXeonE52690(), policy);

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
    engine.run(other, sleeper, 1);
    EXPECT_GE(sleeper.wake_, 100'000u);
}

TEST(TimeSlice, DeterministicForSeed)
{
    auto run = [](std::uint64_t seed) {
        sim::CacheHierarchy h;
        TimeSlicePolicyConfig cfg;
        cfg.quantum = 30'000;
        TimeSlice policy(cfg);
        EngineConfig ec;
        ec.seed = seed;
        Engine engine(h, timing::Uarch::intelXeonE52690(), policy, ec);
        StampingProgram a(0x1000, 100'000);
        StampingProgram b(0x2000, 50);
        return engine.run(a, b, 1);
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

// ------------------------------------------------------ executeOp contract

/**
 * One engine thread (index 0) on the default single-core hierarchy,
 * ready for direct executeOp calls, and @c expect, the engine's RNG
 * stream advanced by exactly the draws the ops so far should make.
 * Setup traffic goes straight to the hierarchy and draws nothing.
 */
struct OpRig
{
    static constexpr std::uint64_t kSeed = 77;
    static constexpr std::uint32_t kOverhead = 10;

    explicit OpRig(std::uint32_t jitter)
        : engine(h, uarch, policy,
                 EngineConfig{.op_overhead = kOverhead, .jitter = jitter,
                              .seed = kSeed}),
          expect(kSeed), jitter(jitter)
    {
        const ThreadSpec specs[] = {{&program, 0}};
        engine.run(specs, 0); // done at once: no op, no draw
    }

    /** Fill L1 set @p set with dirty lines (tags 1..8). */
    void
    dirtySet(std::uint32_t set)
    {
        for (sim::Addr tag = 1; tag <= 8; ++tag)
            h.access(sim::MemRef::store(line(set, tag)));
    }

    /** The line of tag @p tag in L1 set @p set (64 sets of 64 B). */
    static sim::Addr
    line(std::uint32_t set, sim::Addr tag)
    {
        return tag * 64 * 64 + set * 64;
    }

    /** Run @p op at @p start; check the ThreadStats delta and that the
     *  engine drew exactly what @c expect did.  Returns the cost. */
    std::uint64_t
    execute(const Op &op, std::uint64_t start, const ThreadStats &delta)
    {
        const ThreadStats before = engine.stats(0);
        const std::uint64_t cost = engine.executeOp(0, op, start);
        ThreadStats want = before;
        want.accesses += delta.accesses;
        want.measures += delta.measures;
        want.flushes += delta.flushes;
        want.busy_cycles += cost;
        EXPECT_EQ(engine.stats(0), want);
        EXPECT_EQ(engine.rng(), expect);
        return cost;
    }

    /** The result of the last op, which must have been delivered once
     *  per op and stamped with @p start. */
    const OpResult &
    result(std::size_t ops, std::uint64_t start) const
    {
        EXPECT_EQ(program.results_.size(), ops);
        EXPECT_EQ(program.results_.back().tsc, start);
        return program.results_.back();
    }

    sim::CacheHierarchy h;
    const timing::Uarch uarch = timing::Uarch::intelXeonE52690();
    const timing::MeasurementModel model{uarch};
    LowestClock policy;
    ScriptProgram program; //!< done at once; records every OpResult
    Engine engine;
    sim::Xoshiro256 expect;
    std::uint32_t jitter;
};

/** No jitter (no draw at all) and a jitter that draws. */
constexpr std::uint32_t kJitters[] = {0, 13};

TEST(ExecuteOp, LoadAndWritingBackStore)
{
    for (const std::uint32_t jitter : kJitters) {
        SCOPED_TRACE(jitter);
        OpRig rig(jitter);
        // A cold load: served from memory, nothing written back.
        std::uint64_t j = rig.expect.below(jitter);
        std::uint64_t cost = rig.execute(
            Op::access(sim::MemRef::load(OpRig::line(3, 1))), 100,
            ThreadStats{.accesses = 1});
        EXPECT_EQ(cost, rig.uarch.mem_latency + OpRig::kOverhead + j);
        OpResult out = rig.result(1, 100);
        EXPECT_EQ(out.kind, OpKind::Access);
        EXPECT_EQ(out.level, sim::HitLevel::Memory);
        EXPECT_EQ(out.writebacks, 0u);
        EXPECT_EQ(out.measured, 0u);

        // Reloaded: an L1 hit.
        j = rig.expect.below(jitter);
        cost = rig.execute(Op::access(sim::MemRef::load(OpRig::line(3, 1))),
                           200, ThreadStats{.accesses = 1});
        EXPECT_EQ(cost, rig.uarch.l1_latency + OpRig::kOverhead + j);
        EXPECT_EQ(rig.result(2, 200).level, sim::HitLevel::L1);

        // A store into a set full of dirty lines writes one back.
        rig.dirtySet(5);
        j = rig.expect.below(jitter);
        cost = rig.execute(Op::access(sim::MemRef::store(OpRig::line(5, 9))),
                           300, ThreadStats{.accesses = 1});
        EXPECT_EQ(cost, rig.uarch.mem_latency + OpRig::kOverhead + j +
                            rig.uarch.wb_latency);
        out = rig.result(3, 300);
        EXPECT_EQ(out.kind, OpKind::Access);
        EXPECT_EQ(out.level, sim::HitLevel::Memory);
        EXPECT_EQ(out.writebacks, 1u);
        EXPECT_EQ(out.measured, 0u);
    }
}

TEST(ExecuteOp, MeasureAddsChainAndOwnWritebacksToTheReadout)
{
    const sim::HitLevel chain[] = {sim::HitLevel::L1, sim::HitLevel::L2,
                                   sim::HitLevel::L1};
    for (const std::uint32_t jitter : kJitters) {
        SCOPED_TRACE(jitter);
        OpRig rig(jitter);
        // The timed load evicts a dirty line: its own write-back and the
        // chain's two each stall the readout; the cost carries its own.
        rig.dirtySet(7);
        std::uint64_t j = rig.expect.below(jitter);
        std::uint32_t readout =
            rig.model.chase(chain, sim::HitLevel::Memory, rig.expect) +
            3 * rig.uarch.wb_latency;
        std::uint64_t cost = rig.execute(
            Op::measure(sim::MemRef::load(OpRig::line(7, 9)), chain, 2), 100,
            ThreadStats{.measures = 1});
        EXPECT_EQ(cost, rig.uarch.mem_latency + OpRig::kOverhead + j +
                            rig.uarch.wb_latency);
        OpResult out = rig.result(1, 100);
        EXPECT_EQ(out.kind, OpKind::Measure);
        EXPECT_EQ(out.level, sim::HitLevel::Memory);
        EXPECT_EQ(out.writebacks, 1u);
        EXPECT_EQ(out.measured, readout);

        // Measured again: an L1 hit with no write-back anywhere.
        j = rig.expect.below(jitter);
        readout = rig.model.chase(chain, sim::HitLevel::L1, rig.expect);
        cost = rig.execute(
            Op::measure(sim::MemRef::load(OpRig::line(7, 9)), chain), 200,
            ThreadStats{.measures = 1});
        EXPECT_EQ(cost, rig.uarch.l1_latency + OpRig::kOverhead + j);
        out = rig.result(2, 200);
        EXPECT_EQ(out.level, sim::HitLevel::L1);
        EXPECT_EQ(out.writebacks, 0u);
        EXPECT_EQ(out.measured, readout);
    }
}

TEST(ExecuteOp, FlushChargesAMemoryTripAndADirtyWriteback)
{
    for (const std::uint32_t jitter : kJitters) {
        SCOPED_TRACE(jitter);
        OpRig rig(jitter);
        rig.h.access(sim::MemRef::load(OpRig::line(2, 1)));
        rig.h.access(sim::MemRef::store(OpRig::line(2, 2)));
        for (const sim::Addr tag : {1, 2}) {
            const bool dirty = tag == 2;
            const std::uint64_t start = 100 * tag;
            const std::uint64_t j = rig.expect.below(jitter);
            const std::uint64_t cost = rig.execute(
                Op::flush(sim::MemRef::load(OpRig::line(2, tag))), start,
                ThreadStats{.flushes = 1});
            EXPECT_EQ(cost, rig.uarch.mem_latency + OpRig::kOverhead + j +
                                (dirty ? rig.uarch.wb_latency : 0));
            const OpResult out = rig.result(tag, start);
            EXPECT_EQ(out.kind, OpKind::Flush);
            EXPECT_EQ(out.level, sim::HitLevel::Memory);
            EXPECT_EQ(out.writebacks, 0u);
            EXPECT_EQ(out.measured, 0u);
        }
    }
}

TEST(ExecuteOp, MeasureFlushReadsTheDirtyStall)
{
    for (const std::uint32_t jitter : kJitters) {
        SCOPED_TRACE(jitter);
        OpRig rig(jitter);
        rig.h.access(sim::MemRef::load(OpRig::line(4, 1)));
        rig.h.access(sim::MemRef::store(OpRig::line(4, 2)));
        for (const sim::Addr tag : {1, 2}) {
            const bool dirty = tag == 2;
            const std::uint64_t start = 100 * tag;
            const std::uint64_t j = rig.expect.below(jitter);
            const std::uint32_t readout =
                rig.model.flushMeasure(dirty, rig.expect);
            const std::uint64_t cost = rig.execute(
                Op::measureFlush(sim::MemRef::load(OpRig::line(4, tag))),
                start, ThreadStats{.measures = 1, .flushes = 1});
            EXPECT_EQ(cost, rig.uarch.mem_latency + OpRig::kOverhead + j +
                                (dirty ? rig.uarch.wb_latency : 0));
            const OpResult out = rig.result(tag, start);
            EXPECT_EQ(out.kind, OpKind::MeasureFlush);
            EXPECT_EQ(out.level,
                      dirty ? sim::HitLevel::Memory : sim::HitLevel::L1);
            EXPECT_EQ(out.writebacks, 0u);
            EXPECT_EQ(out.measured, readout);
        }
    }
}

} // namespace
