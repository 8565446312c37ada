/**
 * @file
 * Randomized differential suite: exec::Engine with each arbitration
 * policy must be trace-identical — operation order, result levels,
 * measured latencies, timestamps, final clock, per-thread cache
 * counters — to an independent model of its schedule.
 *
 *  - LowestClock (one core's hyperthreads, or one thread per core of a
 *    multi-core topology) against reference::PerOpLowestClock, which
 *    steps the live thread with the lowest clock one op at a time with
 *    no run-ahead (per_op_policy.hpp).
 *  - TimeSlice against the seed time-slice scheduler preserved verbatim
 *    in legacy_schedulers.hpp (its own stepping loop and RNG
 *    consumption).
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
#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::exec;
using differential::expectSameCounters;
using differential::expectSameTrace;

namespace {

using differential::RandomProgram;

/** The op mix and spin range of this suite's scripts. */
constexpr differential::OpMix kMix{60, 75, 85};
constexpr std::uint64_t kSpinRange = 400;

// ----------------------------------------------------------------- SMT

TEST(EngineDifferential, LowestClockMatchesPerOpSmt)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RandomProgram a0(seed * 11, 2500, 0x10000, kMix, kSpinRange);
        RandomProgram a1(seed * 13, 2000, 0x50000, kMix, kSpinRange);
        sim::CacheHierarchy reference_h;
        reference::PerOpLowestClock per_op;
        EngineConfig ec;
        ec.seed = seed;
        Engine reference(reference_h, timing::Uarch::intelXeonE52690(),
                         per_op, ec);
        const auto reference_end = reference.run(a0, a1, 1);

        RandomProgram b0(seed * 11, 2500, 0x10000, kMix, kSpinRange);
        RandomProgram b1(seed * 13, 2000, 0x50000, kMix, kSpinRange);
        sim::CacheHierarchy engine_h;
        LowestClock policy;
        Engine engine(engine_h, timing::Uarch::intelXeonE52690(), policy, ec);
        const auto engine_end = engine.run(b0, b1, 1);

        EXPECT_EQ(reference_end, engine_end) << "seed " << seed;
        expectSameTrace(a0, b0);
        expectSameTrace(a1, b1);
        for (sim::ThreadId t : {0u, 1u}) {
            expectSameCounters(reference_h.l1(), engine_h.l1(), t);
            expectSameCounters(reference_h.l2(), engine_h.l2(), t);
            expectSameCounters(reference_h.llc(), engine_h.llc(), t);
        }
    }
}

// ----------------------------------------------------------- TimeSlice

TEST(EngineDifferential, TimeSliceMatchesLegacyTimeSliceScheduler)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        // Small quanta and busy OS knobs so a run crosses many slices,
        // background slices, ticks and spin fast-forwards.
        legacy::LegacyTimeSliceScheduler::Config lc;
        lc.quantum = 5'000;
        lc.quantum_jitter = 2'000;
        lc.switch_cost = 300;
        lc.kernel_noise_lines = 8;
        lc.background_prob = 0.3;
        lc.background_lines = 32;
        lc.tick_period = 2'500;
        lc.tick_lines = 4;
        lc.seed = seed;

        RandomProgram a0(seed * 17, 1500, 0x10000, kMix, kSpinRange);
        RandomProgram a1(seed * 19, 1200, 0x50000, kMix, kSpinRange);
        sim::CacheHierarchy legacy_h;
        legacy::LegacyTimeSliceScheduler legacy(
            legacy_h, timing::Uarch::intelXeonE52690(), lc);
        const auto legacy_end = legacy.run(a0, a1, 1);

        TimeSlicePolicyConfig pc;
        pc.quantum = lc.quantum;
        pc.quantum_jitter = lc.quantum_jitter;
        pc.switch_cost = lc.switch_cost;
        pc.kernel_noise_lines = lc.kernel_noise_lines;
        pc.background_prob = lc.background_prob;
        pc.background_lines = lc.background_lines;
        pc.tick_period = lc.tick_period;
        pc.tick_lines = lc.tick_lines;

        RandomProgram b0(seed * 17, 1500, 0x10000, kMix, kSpinRange);
        RandomProgram b1(seed * 19, 1200, 0x50000, kMix, kSpinRange);
        sim::CacheHierarchy engine_h;
        TimeSlice policy(pc);
        EngineConfig ec;
        ec.seed = seed;
        ec.max_cycles = lc.max_cycles;
        Engine engine(engine_h, timing::Uarch::intelXeonE52690(), policy, ec);
        const auto engine_end = engine.run(b0, b1, 1);

        EXPECT_EQ(legacy_end, engine_end) << "seed " << seed;
        expectSameTrace(a0, b0);
        expectSameTrace(a1, b1);
        for (sim::ThreadId t :
             {sim::ThreadId{0}, sim::ThreadId{1},
              legacy::LegacyTimeSliceScheduler::kKernelThread,
              legacy::LegacyTimeSliceScheduler::kBackgroundThread}) {
            expectSameCounters(legacy_h.l1(), engine_h.l1(), t);
            expectSameCounters(legacy_h.l2(), engine_h.l2(), t);
            expectSameCounters(legacy_h.llc(), engine_h.llc(), t);
        }
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

        std::vector<std::unique_ptr<RandomProgram>> as, bs;
        std::vector<ThreadSpec> a_specs, b_specs;
        for (std::uint32_t c = 0; c < kCores; ++c) {
            const std::uint64_t pseed = seed * 23 + c;
            const std::size_t ops = 1200 - 100 * c;
            const sim::Addr base = 0x10000 + c * 0x40000;
            as.push_back(std::make_unique<RandomProgram>(
                pseed, ops, base, kMix, kSpinRange));
            bs.push_back(std::make_unique<RandomProgram>(
                pseed, ops, base, kMix, kSpinRange));
            a_specs.push_back(ThreadSpec{as.back().get(), c});
            b_specs.push_back(ThreadSpec{bs.back().get(), c});
        }

        EngineConfig ec;
        ec.seed = seed;
        ec.audit_every = 64;

        // The reference: each core's thread under its own nested
        // PerOpLowestClock, so the parent steps one op per pick.
        sim::MultiCoreHierarchy reference_h(mc);
        LowestClock per_op;
        for (std::uint32_t c = 0; c < kCores; ++c)
            per_op.nest(c, std::make_unique<reference::PerOpLowestClock>());
        Engine reference(reference_h, timing::Uarch::intelXeonE52690(),
                         per_op, ec);
        const auto reference_end = reference.run(a_specs, /*primary=*/1);

        sim::MultiCoreHierarchy engine_h(mc);
        LowestClock policy;
        Engine engine(engine_h, timing::Uarch::intelXeonE52690(), policy, ec);
        const auto engine_end = engine.run(b_specs, /*primary=*/1);

        EXPECT_EQ(reference_end, engine_end) << "seed " << seed;
        for (std::uint32_t c = 0; c < kCores; ++c) {
            expectSameTrace(*as[c], *bs[c]);
            expectSameCounters(reference_h.l1(c), engine_h.l1(c), c);
            expectSameCounters(reference_h.l2(c), engine_h.l2(c), c);
            expectSameCounters(reference_h.llc(), engine_h.llc(), c);
        }
        EXPECT_EQ(reference_h.backInvalidations(),
                  engine_h.backInvalidations());
        EXPECT_GT(reference_h.backInvalidations(), 0u) << "seed " << seed;
        EXPECT_GT(engine_h.backInvalidations(), 0u) << "seed " << seed;
    }
}

// ------------------------------------------- time-sliced multi-core

/** One (quantum, jitter, tick) cell of the time-sliced multi-core grid. */
struct SliceCell
{
    std::uint64_t quantum;
    std::uint64_t quantum_jitter;
    std::uint64_t tick_period;
    double background_prob;
};

/** What a time-sliced multi-core run leaves behind. */
struct SlicedRun
{
    std::vector<std::unique_ptr<RandomProgram>> party;
    std::vector<std::unique_ptr<NoiseProgram>> noise;
    std::unique_ptr<sim::MultiCoreHierarchy> h;
    std::uint64_t end = 0;
    std::vector<ThreadStats> stats;
    std::uint64_t next_draw = 0;
};

/**
 * Two party cores, each a TimeSlice over two random scripts, and
 * @p noise_cores bare NoiseProgram cores, all under LowestClock on a
 * small LLC; thread 3 (core 1's second script) is the primary.  With
 * @p per_event every TimeSlice is wrapped in reference::PerEvent and
 * every noise core nests a PerOpLowestClock, so each parent step runs
 * one event.
 */
SlicedRun
runSlicedMultiCore(const SliceCell &cell, std::uint64_t seed,
                   std::uint32_t noise_cores, bool per_event,
                   std::uint64_t max_cycles = EngineConfig{}.max_cycles)
{
    sim::MultiCoreConfig mc;
    mc.cores = 2 + noise_cores;
    mc.seed = seed;
    mc.llc = sim::CacheConfig{"LLC", 32 * 1024, 16, 64};

    SlicedRun out;
    std::vector<ThreadSpec> specs;
    for (std::uint32_t i = 0; i < 4; ++i) {
        out.party.push_back(std::make_unique<RandomProgram>(
            seed * 29 + i, 900 - 100 * i, 0x10000 + i * 0x40000, kMix,
            kSpinRange));
        specs.push_back(ThreadSpec{out.party.back().get(), i / 2});
    }
    for (std::uint32_t c = 0; c < noise_cores; ++c) {
        NoiseConfig nc;
        nc.footprint_sets = 32;
        nc.set_stride = 32 * 64;
        nc.burst = 16;
        nc.gap = 300;
        nc.seed = seed * 31 + c;
        nc.base = 0x6000'0000'0000ULL + c * 0x0100'0000'0000ULL;
        out.noise.push_back(std::make_unique<NoiseProgram>(nc));
        specs.push_back(ThreadSpec{out.noise.back().get(), 2 + c});
    }

    LowestClock policy;
    for (std::uint32_t core = 0; core < 2; ++core) {
        TimeSlicePolicyConfig pc;
        pc.quantum = cell.quantum;
        pc.quantum_jitter = cell.quantum_jitter;
        pc.switch_cost = 300;
        pc.kernel_noise_lines = 8;
        pc.background_prob = cell.background_prob;
        pc.background_lines = 32;
        pc.tick_period = cell.tick_period;
        pc.tick_lines = 4;
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

    EngineConfig ec;
    ec.max_cycles = max_cycles;
    ec.seed = seed;
    ec.audit_every = 64;
    out.h = std::make_unique<sim::MultiCoreHierarchy>(mc);
    Engine engine(*out.h, timing::Uarch::intelXeonE52690(), policy, ec);
    out.end = engine.run(specs, /*primary=*/3);
    for (unsigned t = 0; t < specs.size(); ++t)
        out.stats.push_back(engine.stats(t));
    out.next_draw = engine.rng()();
    return out;
}

/** Both runs left the same traces, clocks, draws, telemetry and
 *  per-level counters (party, kernel and background thread ids). */
void
expectSameSlicedRun(const SlicedRun &ref, const SlicedRun &run)
{
    EXPECT_EQ(ref.end, run.end);
    EXPECT_EQ(ref.next_draw, run.next_draw);
    for (std::size_t i = 0; i < ref.party.size(); ++i)
        expectSameTrace(*ref.party[i], *run.party[i]);
    ASSERT_EQ(ref.stats.size(), run.stats.size());
    for (std::size_t t = 0; t < ref.stats.size(); ++t)
        EXPECT_TRUE(ref.stats[t] == run.stats[t]) << "thread " << t;
    for (std::uint32_t c = 0; c < ref.h->cores(); ++c) {
        for (sim::ThreadId t = 0; t < ref.stats.size(); ++t) {
            expectSameCounters(ref.h->l1(c), run.h->l1(c), t);
            expectSameCounters(ref.h->l2(c), run.h->l2(c), t);
        }
        for (sim::ThreadId t = 1000; t < 1004; ++t) {
            expectSameCounters(ref.h->l1(c), run.h->l1(c), t);
            expectSameCounters(ref.h->l2(c), run.h->l2(c), t);
        }
    }
    for (sim::ThreadId t = 0; t < ref.stats.size(); ++t)
        expectSameCounters(ref.h->llc(), run.h->llc(), t);
    for (sim::ThreadId t = 1000; t < 1004; ++t)
        expectSameCounters(ref.h->llc(), run.h->llc(), t);
    EXPECT_EQ(ref.h->backInvalidations(), run.h->backInvalidations());
}

TEST(EngineDifferential, NestedTimeSliceMatchesPerEventMultiCore)
{
    constexpr SliceCell kCells[] = {
        {5'000, 2'000, 2'500, 0.3},
        {20'000, 5'000, 3'000, 0.2},
        {60'000, 10'000, 7'000, 0.25},
    };
    for (const SliceCell &cell : kCells) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            const std::uint32_t noise_cores = 1 + seed % 2;
            const SlicedRun ref =
                runSlicedMultiCore(cell, seed, noise_cores, true);
            const SlicedRun run =
                runSlicedMultiCore(cell, seed, noise_cores, false);
            SCOPED_TRACE(testing::Message() << "quantum " << cell.quantum
                                            << " seed " << seed);
            expectSameSlicedRun(ref, run);
            EXPECT_GT(run.h->backInvalidations(), 0u);
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
    constexpr SliceCell kCell{20'000, 5'000, 1'000, 0.2};
    constexpr std::uint64_t kMaxCycles = 100'000;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::uint32_t noise_cores = 1 + seed % 2;
        const SlicedRun ref =
            runSlicedMultiCore(kCell, seed, noise_cores, true, kMaxCycles);
        const SlicedRun run =
            runSlicedMultiCore(kCell, seed, noise_cores, false, kMaxCycles);
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        expectSameSlicedRun(ref, run);
        EXPECT_GE(run.end, kMaxCycles);
        // The primary (600 ops) never finished: the stop ended the run.
        EXPECT_LT(run.party[3]->yieldTimes().size(), 600u);
    }
}

} // namespace
