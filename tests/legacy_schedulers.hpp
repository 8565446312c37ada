/**
 * @file
 * Test-only reference copy of the one retired ad-hoc scheduler still
 * kept: the seed TimeSliceScheduler.
 *
 * exec::Engine replaced the seed SmtScheduler / TimeSliceScheduler /
 * MultiCoreScheduler with one shared stepping core and pluggable
 * arbitration policies.  The clock-ordered schedules (SMT, multi-core)
 * are checked against reference::PerOpLowestClock (per_op_policy.hpp);
 * the time-slice schedule has no other independent model, so the seed
 * implementation lives on here verbatim — its own stepping loop, its
 * own RNG consumption — as the oracle the randomized differential suite
 * compares exec::TimeSlice against, the same pattern the repo uses for
 * the reference replacement models vs sim::ReplState.
 *
 * Do not "fix" or modernise this code: its value is being the seed
 * behaviour, byte for byte.
 */

#ifndef LRULEAK_TESTS_LEGACY_SCHEDULERS_HPP
#define LRULEAK_TESTS_LEGACY_SCHEDULERS_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/op.hpp"
#include "sim/hierarchy.hpp"
#include "sim/random.hpp"
#include "timing/pointer_chase.hpp"
#include "timing/uarch.hpp"

namespace lruleak::legacy {

struct LegacyTimeSliceConfig
{
    std::uint64_t quantum = 150'000'000;
    std::uint64_t quantum_jitter = 80'000'000;
    std::uint32_t switch_cost = 3'000;
    std::uint32_t kernel_noise_lines = 48;
    double background_prob = 0.25;
    std::uint32_t background_lines = 1024;
    std::uint64_t tick_period = 4'000'000;
    std::uint32_t tick_lines = 24;

    std::uint64_t max_cycles = 4'000'000'000'000ULL;
    std::uint32_t op_overhead = 10;
    std::uint32_t jitter = 4;
    std::uint64_t seed = 42;
};

/** Seed TimeSliceScheduler, verbatim. */
class LegacyTimeSliceScheduler
{
  public:
    using Config = LegacyTimeSliceConfig;

    static constexpr sim::ThreadId kKernelThread = 1000;
    static constexpr sim::ThreadId kBackgroundThread = 1001;

    LegacyTimeSliceScheduler(sim::CacheHierarchy &hierarchy,
                             const timing::Uarch &uarch,
                       LegacyTimeSliceConfig config = {})
        : hierarchy_(hierarchy), uarch_(uarch), model_(uarch),
          config_(config), rng_(config.seed)
    {
    }

    std::uint64_t
    run(exec::ThreadProgram &thread0, exec::ThreadProgram &thread1,
        unsigned primary = 1)
    {
        exec::ThreadProgram *threads[2] = {&thread0, &thread1};
        threads[0]->setThreadId(0);
        threads[1]->setThreadId(1);

        bool done[2] = {false, false};
        std::uint64_t spin_until[2] = {0, 0};
        unsigned active = 0;

        while (now_ < config_.max_cycles && !done[primary]) {
            const std::uint64_t slice_end = now_ + config_.quantum +
                (config_.quantum_jitter
                     ? rng_.below(config_.quantum_jitter)
                     : 0);

            if (rng_.chance(config_.background_prob)) {
                backgroundSlice(slice_end);
                now_ += config_.switch_cost;
                contextSwitchNoise();
                continue;
            }

            exec::ThreadProgram &prog = *threads[active];
            while (now_ < slice_end && !done[active]) {
                serviceTicks();
                if (spin_until[active] > now_) {
                    std::uint64_t stop =
                        std::min(spin_until[active], slice_end);
                    if (config_.tick_period != 0)
                        stop = std::min(stop, next_tick_);
                    now_ = std::max(now_ + 1, stop);
                    if (spin_until[active] > now_ && now_ >= slice_end)
                        break;
                    continue;
                }
                const exec::Op op = prog.next(now_);
                if (op.kind == exec::OpKind::Done) {
                    done[active] = true;
                } else if (op.kind == exec::OpKind::SpinUntil) {
                    spin_until[active] = op.until;
                } else {
                    now_ += executeOp(prog, op, now_);
                }
            }

            if (done[primary])
                break;

            now_ += config_.switch_cost;
            contextSwitchNoise();
            const unsigned other = active ^ 1u;
            if (!done[other])
                active = other;
        }
        return now_;
    }

    std::uint64_t now() const { return now_; }

  private:
    static constexpr sim::Addr kKernelBase = 0x7f00'0000'0000ULL;
    static constexpr sim::Addr kBackgroundBase = 0x6e00'0000'0000ULL;
    static constexpr std::uint64_t kKernelLines = 4096;

    std::uint64_t
    executeOp(exec::ThreadProgram &prog, const exec::Op &op,
              std::uint64_t start)
    {
        const std::uint64_t jitter =
            config_.jitter ? rng_.below(config_.jitter) : 0;
        switch (op.kind) {
          case exec::OpKind::Access: {
            const auto res = hierarchy_.access(op.ref, op.lock_req);
            exec::OpResult out;
            out.kind = exec::OpKind::Access;
            out.level = res.level;
            out.tsc = start;
            prog.onResult(out);
            return uarch_.latency(res.level) + config_.op_overhead + jitter;
          }
          case exec::OpKind::Measure: {
            const auto res = hierarchy_.access(op.ref, op.lock_req);
            exec::OpResult out;
            out.kind = exec::OpKind::Measure;
            out.level = res.level;
            out.measured = model_.chase(op.chain_levels, res.level, rng_);
            out.tsc = start;
            prog.onResult(out);
            return uarch_.latency(res.level) + config_.op_overhead + jitter;
          }
          case exec::OpKind::Flush: {
            hierarchy_.flush(op.ref);
            exec::OpResult out;
            out.kind = exec::OpKind::Flush;
            out.tsc = start;
            prog.onResult(out);
            return uarch_.mem_latency + config_.op_overhead + jitter;
          }
          case exec::OpKind::MeasureFlush: // newer than these schedulers:
                                           // their programs never yield it
          case exec::OpKind::SpinUntil:
          case exec::OpKind::Done:
            return 0;
        }
        return 0;
    }

    void
    kernelBurst(std::uint64_t mean_lines)
    {
        if (mean_lines == 0)
            return;
        const std::uint64_t count =
            mean_lines / 2 + rng_.below(mean_lines + 1);
        burst_refs_.resize(count);
        burst_levels_.resize(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            const sim::Addr line =
                kKernelBase + rng_.below(kKernelLines) * 64;
            burst_refs_[i] = sim::MemRef{line, line, kKernelThread, false};
        }
        hierarchy_.accessBatch(burst_refs_, burst_levels_);
        for (std::uint64_t i = 0; i < count; ++i)
            now_ += uarch_.latency(burst_levels_[i]);
    }

    void contextSwitchNoise() { kernelBurst(config_.kernel_noise_lines); }

    void
    serviceTicks()
    {
        if (config_.tick_period == 0)
            return;
        if (next_tick_ == 0)
            next_tick_ = now_ + config_.tick_period;
        while (now_ >= next_tick_) {
            kernelBurst(config_.tick_lines);
            next_tick_ += config_.tick_period;
        }
    }

    void
    backgroundSlice(std::uint64_t slice_end)
    {
        for (std::uint32_t i = 0; i < config_.background_lines; ++i) {
            const sim::Addr line = kBackgroundBase +
                rng_.below(config_.background_lines * 4) * 64;
            sim::MemRef ref{line, line, kBackgroundThread, false};
            const auto res = hierarchy_.access(ref);
            now_ += uarch_.latency(res.level) + config_.op_overhead;
            if (now_ >= slice_end)
                break;
        }
        now_ = std::max(now_, slice_end);
    }

    sim::CacheHierarchy &hierarchy_;
    timing::Uarch uarch_;
    timing::MeasurementModel model_;
    Config config_;
    sim::Xoshiro256 rng_;
    std::uint64_t now_ = 0;
    std::uint64_t next_tick_ = 0;
    std::vector<sim::MemRef> burst_refs_;
    std::vector<sim::HitLevel> burst_levels_;
};

} // namespace lruleak::legacy

#endif // LRULEAK_TESTS_LEGACY_SCHEDULERS_HPP
