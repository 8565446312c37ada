/**
 * @file
 * Test-only per-op reference for exec::LowestClock's bare threads.
 *
 * LowestClock steps a bare thread ahead for as long as a re-scan would
 * pick it again (the run-ahead, DESIGN.md "Cross-core step
 * shortcuts").  PerOpLowestClock is the schedule that shortcut claims
 * to reproduce, with no shortcut: every step picks the live thread with
 * the lowest private clock (ties toward the lowest engine index) and
 * runs exactly one op of it through Engine::stepClockThread, until the
 * engine crosses max_cycles.  As a root policy it schedules one core's
 * hyperthreads; nested under LowestClock it holds one core's threads to
 * one op per parent step.
 */

#ifndef LRULEAK_TESTS_PER_OP_POLICY_HPP
#define LRULEAK_TESTS_PER_OP_POLICY_HPP

#include <cstdint>
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
    step(exec::Engine &engine) override
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

} // namespace lruleak::reference

#endif // LRULEAK_TESTS_PER_OP_POLICY_HPP
