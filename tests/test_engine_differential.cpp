/**
 * @file
 * Randomized differential suite: exec::Engine with each arbitration
 * policy must leave the same traces (operation order, result levels,
 * measured latencies, timestamps) and the same run end as an
 * independent model of its schedule, compared by compare::expectSameRun
 * (same_topology.hpp): the end TSC, every thread's clock, spin state
 * and telemetry, the RNG, every set and every thread id's counters.
 *
 *  - LowestClock (one core's hyperthreads, or one thread per core of a
 *    multi-core topology) against reference::PerOpLowestClock, which
 *    steps the live thread with the lowest clock one op at a time with
 *    no run-ahead (per_op_policy.hpp).
 *  - TimeSlice against the seed time-slice scheduler preserved verbatim
 *    in legacy_schedulers.hpp (its own stepping loop and RNG
 *    consumption).  It has no Engine, so there the comparison covers
 *    the end TSC, the traces and the topology.
 *  - LowestClock over time-sliced party cores and bare noise cores,
 *    where each TimeSlice runs up to its horizon, against the same
 *    setup stepped one event per call (reference::PerEvent around each
 *    TimeSlice, a PerOpLowestClock on each noise core).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/engine.hpp"
#include "legacy_schedulers.hpp"
#include "per_op_policy.hpp"
#include "random_program.hpp"
#include "same_topology.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::exec;
using compare::RunEnd;
using differential::GridCell;
using differential::RandomProgram;

namespace {

/** The op mix and spin range of this suite's scripts. */
constexpr differential::OpMix kMix{60, 75, 85};
constexpr std::uint64_t kSpinRange = 400;

/** A random script of this suite's mix, owned by @p run. */
RandomProgram &
script(RunEnd &run, std::uint64_t seed, std::size_t ops, sim::Addr base)
{
    return run.own(
        std::make_unique<RandomProgram>(seed, ops, base, kMix, kSpinRange));
}

/**
 * Two scripts (seeds @p s0 and @p s1, @p n0 and @p n1 ops) on one core
 * of a default CacheHierarchy under @p policy; the second is the
 * primary.  @p extra_ids are the policy's own thread ids.
 */
RunEnd
runPair(ArbitrationPolicy &policy, const EngineConfig &ec, std::uint64_t s0,
        std::size_t n0, std::uint64_t s1, std::size_t n1,
        const compare::Ids &extra_ids = {})
{
    RunEnd out;
    RandomProgram &p0 = script(out, s0, n0, 0x10000);
    RandomProgram &p1 = script(out, s1, n1, 0x50000);
    Engine engine(out.hierarchy(), timing::Uarch::intelXeonE52690(), policy,
                  ec);
    engine.run(p0, p1, 1);
    out.record(engine, extra_ids);
    return out;
}

/** expectSameRun() and the same traces. */
void
expectSame(const RunEnd &ref, const RunEnd &run)
{
    compare::expectSameRun(ref, run);
    differential::expectSameTraces(ref, run);
}

// ----------------------------------------------------------------- SMT

TEST(EngineDifferential, LowestClockMatchesPerOpSmt)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const EngineConfig ec{.seed = seed};
        reference::PerOpLowestClock per_op;
        LowestClock policy;
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        expectSame(runPair(per_op, ec, seed * 11, 2500, seed * 13, 2000),
                   runPair(policy, ec, seed * 11, 2500, seed * 13, 2000));
    }
}

// ----------------------------------------------------------- TimeSlice

TEST(EngineDifferential, TimeSliceMatchesLegacyTimeSliceScheduler)
{
    using Legacy = legacy::LegacyTimeSliceScheduler;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        // Small quanta and busy OS knobs so a run crosses many slices,
        // background slices, ticks and spin fast-forwards.
        const TimeSlicePolicyConfig pc =
            differential::policyFor({5'000, 2'000, 2'500, 0.3});
        Legacy::Config lc;
        lc.quantum = pc.quantum;
        lc.quantum_jitter = pc.quantum_jitter;
        lc.switch_cost = pc.switch_cost;
        lc.kernel_noise_lines = pc.kernel_noise_lines;
        lc.background_prob = pc.background_prob;
        lc.background_lines = pc.background_lines;
        lc.tick_period = pc.tick_period;
        lc.tick_lines = pc.tick_lines;
        lc.seed = seed;

        RunEnd legacy_run;
        RandomProgram &a0 = script(legacy_run, seed * 17, 1500, 0x10000);
        RandomProgram &a1 = script(legacy_run, seed * 19, 1200, 0x50000);
        Legacy legacy(legacy_run.hierarchy(),
                      timing::Uarch::intelXeonE52690(), lc);
        legacy_run.tsc = legacy.run(a0, a1, 1);
        legacy_run.ids = {0, 1, Legacy::kKernelThread,
                          Legacy::kBackgroundThread};

        TimeSlice policy(pc);
        const EngineConfig ec{.max_cycles = lc.max_cycles, .seed = seed};
        const RunEnd run =
            runPair(policy, ec, seed * 17, 1500, seed * 19, 1200,
                    {pc.kernel_thread, pc.background_thread});

        SCOPED_TRACE(testing::Message() << "seed " << seed);
        compare::expectSameEnd(legacy_run, run);
        differential::expectSameTraces(legacy_run, run);
    }
}

// ----------------------------------------------------------- MultiCore

TEST(EngineDifferential, LowestClockMatchesPerOpMultiCore)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        constexpr std::uint32_t kCores = 4;
        sim::MultiCoreConfig mc;
        mc.cores = kCores;
        mc.seed = seed;
        // 256 LLC lines against the cores' 4 x 96: the inclusive LLC
        // evicts lines the private caches still hold.
        mc.llc = sim::CacheConfig{"LLC", 16 * 1024, 16, 64};
        const EngineConfig ec{.seed = seed, .audit_every = 64};

        const auto run = [&](LowestClock &policy) {
            RunEnd out(mc);
            std::vector<ThreadSpec> specs;
            for (std::uint32_t c = 0; c < kCores; ++c)
                specs.push_back(ThreadSpec{
                    &script(out, seed * 23 + c, 1200 - 100 * c,
                            0x10000 + c * 0x40000),
                    c});
            Engine engine(out.multiCore(), timing::Uarch::intelXeonE52690(),
                          policy, ec);
            engine.run(specs, /*primary=*/1);
            out.record(engine);
            return out;
        };
        // The reference: each core's thread under its own nested
        // PerOpLowestClock, so the parent steps one op per pick.
        LowestClock per_op;
        for (std::uint32_t c = 0; c < kCores; ++c)
            per_op.nest(c, std::make_unique<reference::PerOpLowestClock>());
        LowestClock policy;
        const RunEnd ref = run(per_op);
        const RunEnd got = run(policy);

        SCOPED_TRACE(testing::Message() << "seed " << seed);
        expectSame(ref, got);
        EXPECT_GT(ref.multiCore().backInvalidations(), 0u);
        EXPECT_GT(got.multiCore().backInvalidations(), 0u);
    }
}

// ------------------------------------------- time-sliced multi-core

/**
 * Two party cores, each a TimeSlice over two random scripts, and
 * @p noise_cores bare NoiseProgram cores, all under LowestClock on a
 * small LLC; thread 3 (core 1's second script) is the primary.  With
 * @p per_event every TimeSlice is wrapped in reference::PerEvent and
 * every noise core nests a PerOpLowestClock, so each parent step runs
 * one event.
 */
RunEnd
runSlicedMultiCore(const GridCell &cell, std::uint64_t seed,
                   std::uint32_t noise_cores, bool per_event,
                   std::uint64_t max_cycles = EngineConfig{}.max_cycles)
{
    sim::MultiCoreConfig mc;
    mc.cores = 2 + noise_cores;
    mc.seed = seed;
    mc.llc = sim::CacheConfig{"LLC", 32 * 1024, 16, 64};

    RunEnd out(mc);
    std::vector<ThreadSpec> specs;
    for (std::uint32_t i = 0; i < 4; ++i)
        specs.push_back(ThreadSpec{
            &script(out, seed * 29 + i, 900 - 100 * i, 0x10000 + i * 0x40000),
            i / 2});
    for (std::uint32_t c = 0; c < noise_cores; ++c) {
        NoiseConfig nc;
        nc.footprint_sets = 32;
        nc.set_stride = 32 * 64;
        nc.burst = 16;
        nc.gap = 300;
        nc.seed = seed * 31 + c;
        nc.base = 0x6000'0000'0000ULL + c * 0x0100'0000'0000ULL;
        specs.push_back(
            ThreadSpec{&out.own(std::make_unique<NoiseProgram>(nc)), 2 + c});
    }

    LowestClock policy;
    for (std::uint32_t core = 0; core < 2; ++core) {
        TimeSlicePolicyConfig pc = differential::policyFor(cell);
        pc.kernel_thread = 1000 + 2 * core;
        pc.background_thread = 1001 + 2 * core;
        pc.background_base += core * 0x0100'0000'0000ULL;
        auto slice = std::make_unique<TimeSlice>(pc);
        if (per_event)
            policy.nest(core, std::make_unique<reference::PerEvent>(
                                  std::move(slice)));
        else
            policy.nest(core, std::move(slice));
    }
    if (per_event) {
        for (std::uint32_t c = 0; c < noise_cores; ++c)
            policy.nest(2 + c, std::make_unique<reference::PerOpLowestClock>());
    }

    const EngineConfig ec{
        .max_cycles = max_cycles, .seed = seed, .audit_every = 64};
    Engine engine(out.multiCore(), timing::Uarch::intelXeonE52690(), policy,
                  ec);
    engine.run(specs, /*primary=*/3);
    out.record(engine, {1000, 1001, 1002, 1003});
    return out;
}

TEST(EngineDifferential, NestedTimeSliceMatchesPerEventMultiCore)
{
    constexpr GridCell kCells[] = {
        {5'000, 2'000, 2'500, 0.3},
        {20'000, 5'000, 3'000, 0.2},
        {60'000, 10'000, 7'000, 0.25},
    };
    for (const GridCell &cell : kCells) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            const std::uint32_t noise_cores = 1 + seed % 2;
            const RunEnd ref =
                runSlicedMultiCore(cell, seed, noise_cores, true);
            const RunEnd run =
                runSlicedMultiCore(cell, seed, noise_cores, false);
            SCOPED_TRACE(testing::Message() << "quantum " << cell.quantum
                                            << " seed " << seed);
            expectSame(ref, run);
            EXPECT_GT(run.multiCore().backInvalidations(), 0u);
        }
    }
}

TEST(EngineDifferential, TickBoundSliceStopsAtMaxCycles)
{
    // Each 1,000-cycle tick's kernel burst misses this small LLC and
    // lasts at least a tick period, so the next tick is due as soon as
    // it ends: only max_cycles stops the tick loop, and it must end the
    // slice and so the run, on the horizon side and the per-event side
    // alike.
    constexpr GridCell kCell{20'000, 5'000, 1'000, 0.2};
    constexpr std::uint64_t kMaxCycles = 100'000;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::uint32_t noise_cores = 1 + seed % 2;
        const RunEnd ref =
            runSlicedMultiCore(kCell, seed, noise_cores, true, kMaxCycles);
        const RunEnd run =
            runSlicedMultiCore(kCell, seed, noise_cores, false, kMaxCycles);
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        expectSame(ref, run);
        EXPECT_GE(run.tsc, kMaxCycles);
        // The primary (600 ops) never finished: the stop ended the run.
        EXPECT_LT(run.program<RandomProgram>(3)->yieldTimes().size(), 600u);
    }
}

} // namespace
