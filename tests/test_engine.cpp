/**
 * @file
 * Unit tests of the execution engine proper: thread/core binding
 * validation, the inclusion audit, policy nesting, the generalisations the seed
 * schedulers did not have (TimeSlice over N threads, TimeSlice per core
 * under LowestClock, an SMT pair of bare threads on one core of a
 * multi-core system), the consolidated exec::ThreadStats telemetry,
 * and Engine::executeOp's contract for every op kind: its cost, the
 * OpResult, the ThreadStats delta and its RNG draws in order.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/engine.hpp"
#include "per_op_policy.hpp"
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

TimeSlicePolicyConfig
quietSlices(std::uint64_t quantum)
{
    TimeSlicePolicyConfig pc;
    pc.quantum = quantum;
    pc.quantum_jitter = 0;
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

    class Mixed : public ThreadProgram
    {
      public:
        Op
        next(std::uint64_t now) override
        {
            switch (step_++) {
              case 0: return Op::access(sim::MemRef::load(0x40));
              case 1: return Op::flush(sim::MemRef::load(0x40));
              case 2: return Op::spinUntil(now + 100);
              case 3:
                return Op::measure(sim::MemRef::load(0x40), chain_);
              default: return Op::done();
            }
        }

      private:
        int step_ = 0;
        std::vector<sim::HitLevel> chain_{sim::HitLevel::L1};
    } mixed;
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
    struct Run
    {
        std::vector<std::vector<std::uint64_t>> stamps;
        std::uint64_t now = 0;
    };
    const auto run = [](bool explicit_children) {
        sim::MultiCoreHierarchy h(sim::MultiCoreConfig{.cores = 4});
        LowestClock policy;
        if (explicit_children) {
            for (std::uint32_t core : {0u, 1u, 3u})
                policy.nest(core,
                            std::make_unique<reference::PerOpLowestClock>());
        }
        policy.nest(2, std::make_unique<TimeSlice>(quietSlices(3'000)));
        EngineConfig ec;
        ec.max_cycles = 60'000;
        Engine engine(h, timing::Uarch::intelXeonE52690(), policy, ec);

        std::vector<StampingProgram> programs;
        for (sim::Addr a : {0x1000, 0x1000, 0x2040, 0x3080, 0x4000, 0x50c0})
            programs.emplace_back(a, 1'000'000);
        const ThreadSpec specs[] = {{&programs[0], 3}, {&programs[1], 0},
                                    {&programs[2], 0}, {&programs[3], 1},
                                    {&programs[4], 2}, {&programs[5], 0}};
        Run out;
        out.now = engine.run(specs, /*primary=*/2);
        for (const auto &p : programs)
            out.stamps.push_back(p.stamps_);
        return out;
    };
    const Run bare = run(false);
    const Run nested = run(true);
    EXPECT_EQ(bare.now, nested.now);
    EXPECT_GE(bare.now, 60'000u); // stopped by max_cycles
    for (std::size_t i = 0; i < bare.stamps.size(); ++i) {
        EXPECT_GT(bare.stamps[i].size(), 0u) << "thread " << i;
        EXPECT_EQ(bare.stamps[i], nested.stamps[i]) << "thread " << i;
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

// ------------------------------------------------------ executeOp contract

/** Finishes at once and records every OpResult delivered to it. */
class ResultRecorder : public ThreadProgram
{
  public:
    Op next(std::uint64_t) override { return Op::done(); }
    void
    onResult(const OpResult &result) override
    {
        results.push_back(result);
    }

    std::vector<OpResult> results;
};

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
        EXPECT_EQ(program.results.size(), ops);
        EXPECT_EQ(program.results.back().tsc, start);
        return program.results.back();
    }

    sim::CacheHierarchy h;
    const timing::Uarch uarch = timing::Uarch::intelXeonE52690();
    const timing::MeasurementModel model{uarch};
    LowestClock policy;
    ResultRecorder program;
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
