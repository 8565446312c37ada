/**
 * @file
 * Test-only one-event-per-call references for the engine's policies.
 *
 * Every ArbitrationPolicy::step() runs events up to the horizon its
 * parent hands it: LowestClock steps a bare thread ahead for as long as
 * a re-scan would pick it again (the run-ahead, DESIGN.md "Cross-core
 * step shortcuts"), and TimeSlice runs a slice's ops, and folds steady
 * iterations, up to the horizon.  The references here are the
 * schedules those shortcuts claim to reproduce, with no shortcut:
 *
 *  - PerOpLowestClock: every step picks the live thread with the lowest
 *    private clock (ties toward the lowest engine index) and runs
 *    exactly one op of it through Engine::stepClockThread, whatever
 *    horizon it gets, until the engine crosses max_cycles.  As a root
 *    policy it schedules one core's hyperthreads; nested under
 *    LowestClock it holds one core's threads to one op per parent step.
 *  - PerEvent: wraps a policy (a TimeSlice) and hands it a closed
 *    horizon on every call, so it runs exactly one event per call and
 *    never folds.  It counts its calls and the most program ops one
 *    call consumed, so a test can check that it really steps once per
 *    event.
 */

#ifndef LRULEAK_TESTS_PER_OP_POLICY_HPP
#define LRULEAK_TESTS_PER_OP_POLICY_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "exec/engine.hpp"

namespace lruleak::reference {

class PerOpLowestClock final : public exec::ArbitrationPolicy
{
  public:
    void
    begin(exec::Engine &, std::span<const unsigned> threads) override
    {
        threads_.assign(threads.begin(), threads.end());
    }

    std::optional<std::uint64_t>
    nextEventTime(const exec::Engine &engine) const override
    {
        const unsigned t = pick(engine);
        if (t == engine.threadCount())
            return std::nullopt;
        return engine.thread(t).clock;
    }

    bool
    step(exec::Engine &engine, exec::Horizon) override
    {
        const unsigned t = pick(engine);
        if (t == engine.threadCount())
            return false;
        engine.stepClockThread(t);
        return true;
    }

  private:
    /** Live thread with the lowest clock, or threadCount() when none is
     *  left or the engine has reached max_cycles. */
    unsigned
    pick(const exec::Engine &engine) const
    {
        const auto none = static_cast<unsigned>(engine.threadCount());
        if (engine.now() >= engine.config().max_cycles)
            return none;
        unsigned best = none;
        for (unsigned t : threads_) {
            const auto &ctx = engine.thread(t);
            if (!ctx.done &&
                (best == none || ctx.clock < engine.thread(best).clock))
                best = t;
        }
        return best;
    }

    std::vector<unsigned> threads_;
};

class PerEvent final : public exec::ArbitrationPolicy
{
  public:
    explicit PerEvent(std::unique_ptr<exec::ArbitrationPolicy> inner)
        : inner_(std::move(inner))
    {}

    void
    begin(exec::Engine &engine, std::span<const unsigned> threads) override
    {
        threads_.assign(threads.begin(), threads.end());
        inner_->begin(engine, threads);
    }

    std::optional<std::uint64_t>
    nextEventTime(const exec::Engine &engine) const override
    {
        return inner_->nextEventTime(engine);
    }

    bool
    step(exec::Engine &engine, exec::Horizon) override
    {
        const std::uint64_t before = ops(engine);
        // Time 0 without the tie admits no event: the wrapped policy
        // runs the one it was picked for and returns.
        if (!inner_->step(engine, exec::Horizon{0, false}))
            return false;
        ++steps_;
        max_ops_per_step_ =
            std::max(max_ops_per_step_, ops(engine) - before);
        return true;
    }

    /** step() calls that ran an event. */
    std::uint64_t steps() const { return steps_; }
    /** The most program ops (ThreadStats::totalOps) one call consumed. */
    std::uint64_t maxOpsPerStep() const { return max_ops_per_step_; }

  private:
    std::uint64_t
    ops(const exec::Engine &engine) const
    {
        std::uint64_t n = 0;
        for (unsigned t : threads_)
            n += engine.thread(t).stats.totalOps();
        return n;
    }

    std::unique_ptr<exec::ArbitrationPolicy> inner_;
    std::vector<unsigned> threads_;
    std::uint64_t steps_ = 0;
    std::uint64_t max_ops_per_step_ = 0;
};

} // namespace lruleak::reference

#endif // LRULEAK_TESTS_PER_OP_POLICY_HPP
