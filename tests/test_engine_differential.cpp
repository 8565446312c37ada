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
    }
}

} // namespace
