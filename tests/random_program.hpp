/**
 * @file
 * The random op script of the scheduler differentials: a thread program
 * that replays a pre-generated mix of accesses, measures, flushes and
 * relative spins and records every result and yield time, the trace
 * comparison the differentials share, and the OS model of their
 * time-slice grids.
 */

#ifndef LRULEAK_TESTS_RANDOM_PROGRAM_HPP
#define LRULEAK_TESTS_RANDOM_PROGRAM_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "exec/engine.hpp"
#include "exec/op.hpp"
#include "same_topology.hpp"
#include "sim/random.hpp"

namespace lruleak::differential {

/**
 * Cumulative percentages of the script's op kinds: a draw below
 * `access` is an access, below `measure` a measure, below `flush` a
 * flush, and the rest spins.
 */
struct OpMix
{
    std::uint64_t access;
    std::uint64_t measure;
    std::uint64_t flush;
};

/** Replays a pre-generated random op script; records every result. */
class RandomProgram : public exec::ThreadProgram
{
  public:
    /**
     * @p ops ops over 96 lines from @p base, drawn from @p seed with
     * the kinds of @p mix; a spin waits 50 + [0, @p spin_range) cycles.
     */
    RandomProgram(std::uint64_t seed, std::size_t ops, sim::Addr base,
                  OpMix mix, std::uint64_t spin_range)
    {
        // Materialise the script up front so every run consumes an
        // identical op sequence regardless of scheduling.
        sim::Xoshiro256 rng(seed);
        script_.reserve(ops);
        for (std::size_t i = 0; i < ops; ++i) {
            const std::uint64_t kind = rng.below(100);
            const sim::Addr line = base + rng.below(96) * 64;
            if (kind < mix.access) {
                script_.push_back(exec::Op::access(sim::MemRef::load(line)));
            } else if (kind < mix.measure) {
                script_.push_back(
                    exec::Op::measure(sim::MemRef::load(line), chain_));
            } else if (kind < mix.flush) {
                script_.push_back(exec::Op::flush(sim::MemRef::load(line)));
            } else {
                // Relative spin; the deadline is fixed at yield time.
                spin_gaps_[script_.size()] = 50 + rng.below(spin_range);
                script_.push_back(exec::Op::spinUntil(0));
            }
        }
    }

    exec::Op
    next(std::uint64_t now) override
    {
        if (index_ >= script_.size())
            return exec::Op::done();
        exec::Op op = script_[index_];
        const auto gap = spin_gaps_.find(index_);
        if (gap != spin_gaps_.end())
            op.until = now + gap->second;
        ++index_;
        // The engine assigns the thread id; stamp the refs here so
        // counter attribution matches.
        op.ref.thread = threadId();
        yield_times_.push_back(now);
        return op;
    }

    void
    onResult(const exec::OpResult &result) override
    {
        results_.push_back(result);
    }

    const std::vector<exec::OpResult> &results() const { return results_; }
    const std::vector<std::uint64_t> &yieldTimes() const
    {
        return yield_times_;
    }

  private:
    /** Owns the chain the measure ops' spans view. */
    std::vector<sim::HitLevel> chain_ =
        std::vector<sim::HitLevel>(7, sim::HitLevel::L1);
    std::vector<exec::Op> script_;
    std::map<std::size_t, std::uint64_t> spin_gaps_;
    std::size_t index_ = 0;
    std::vector<exec::OpResult> results_;
    std::vector<std::uint64_t> yield_times_;
};

/** Same results (kind, level, measured latency, tsc) and yield times. */
inline void
expectSameTrace(const RandomProgram &a, const RandomProgram &b)
{
    ASSERT_EQ(a.results().size(), b.results().size());
    for (std::size_t i = 0; i < a.results().size(); ++i) {
        EXPECT_EQ(a.results()[i].kind, b.results()[i].kind) << i;
        EXPECT_EQ(a.results()[i].level, b.results()[i].level) << i;
        EXPECT_EQ(a.results()[i].measured, b.results()[i].measured) << i;
        EXPECT_EQ(a.results()[i].tsc, b.results()[i].tsc) << i;
    }
    ASSERT_EQ(a.yieldTimes().size(), b.yieldTimes().size());
    for (std::size_t i = 0; i < a.yieldTimes().size(); ++i)
        EXPECT_EQ(a.yieldTimes()[i], b.yieldTimes()[i]) << i;
}

/** Every RandomProgram two runs own, in own() order, left the same
 *  trace. */
inline void
expectSameTraces(const compare::RunEnd &a, const compare::RunEnd &b)
{
    ASSERT_EQ(a.programCount(), b.programCount());
    for (std::size_t i = 0; i < a.programCount(); ++i) {
        const RandomProgram *x = a.program<RandomProgram>(i);
        const RandomProgram *y = b.program<RandomProgram>(i);
        ASSERT_EQ(x == nullptr, y == nullptr) << "program " << i;
        if (x != nullptr) {
            SCOPED_TRACE(testing::Message() << "program " << i);
            expectSameTrace(*x, *y);
        }
    }
}

/** One (quantum, jitter, tick) cell of a time-slice grid. */
struct GridCell
{
    std::uint64_t quantum;
    std::uint64_t quantum_jitter;
    std::uint64_t tick_period;
    double background_prob;
};

/** The OS model of one grid cell (small kernel/background footprints). */
inline exec::TimeSlicePolicyConfig
policyFor(const GridCell &cell)
{
    exec::TimeSlicePolicyConfig pc;
    pc.quantum = cell.quantum;
    pc.quantum_jitter = cell.quantum_jitter;
    pc.switch_cost = 300;
    pc.kernel_noise_lines = 8;
    pc.background_prob = cell.background_prob;
    pc.background_lines = 32;
    pc.tick_period = cell.tick_period;
    pc.tick_lines = 4;
    return pc;
}

} // namespace lruleak::differential

#endif // LRULEAK_TESTS_RANDOM_PROGRAM_HPP
