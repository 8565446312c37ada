/**
 * @file
 * Execution engine implementation.
 *
 * Behaviour contract: the operation order and RNG draw sequence are
 * those of the seed schedulers, so the golden snapshots stay
 * byte-identical.  Anything that would change a draw order — jitter
 * before the access, measurement noise after it, kernel-burst sizing
 * before its lines — stays in that sequence.  The tests hold both
 * policies to one-event-per-call references, and TimeSlice to the seed
 * time-slice scheduler (tests/test_engine_differential.cpp).
 */

#include "exec/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace lruleak::exec {

// --------------------------------------------------------------- engine

Engine::Engine(sim::CacheHierarchy &hierarchy, const timing::Uarch &uarch,
               ArbitrationPolicy &policy, EngineConfig config)
    : single_(&hierarchy), uarch_(uarch), model_(uarch), policy_(policy),
      config_(config), rng_(config.seed)
{}

Engine::Engine(sim::MultiCoreHierarchy &hierarchy,
               const timing::Uarch &uarch, ArbitrationPolicy &policy,
               EngineConfig config)
    : multi_(&hierarchy), uarch_(uarch), model_(uarch), policy_(policy),
      config_(config), rng_(config.seed)
{}

sim::CacheFlushResult
Engine::flush(const sim::MemRef &ref)
{
    return multi_ != nullptr ? multi_->flush(ref) : single_->flush(ref);
}

void
Engine::audit()
{
    ops_since_audit_ = 0;
    if (multi_ == nullptr)
        return;
    if (auto violation = multi_->auditInclusion())
        throw std::logic_error(*violation);
}

inline void
Engine::maybeAudit()
{
    if (config_.audit_every != 0 &&
        ++ops_since_audit_ >= config_.audit_every)
        audit();
}

std::uint64_t
Engine::executeOp(unsigned idx, const Op &op, std::uint64_t start)
{
    Thread &t = threads_[idx];
    // Jitter is drawn before the access and any readout noise after it.
    const std::uint64_t jitter = rng_.below(config_.jitter);
    const bool flushes =
        op.kind == OpKind::Flush || op.kind == OpKind::MeasureFlush;
    const bool measures =
        op.kind == OpKind::Measure || op.kind == OpKind::MeasureFlush;
    OpResult out;
    out.kind = op.kind;
    out.tsc = start;
    // What the op is charged for: clflush drains to memory, so a flush
    // costs a memory round trip plus the write-back of a dirty copy.
    sim::HitLevel level = sim::HitLevel::Memory;
    std::uint32_t writebacks = 0;
    if (flushes) {
        const bool dirty = flush(op.ref).dirty;
        writebacks = dirty;
        if (measures) {
            out.level = dirty ? sim::HitLevel::Memory : sim::HitLevel::L1;
            out.measured = model_.flushMeasure(dirty, rng_);
        }
    } else {
        const auto pa = access(t.core, op.ref, op.lock_req);
        level = out.level = pa.level;
        writebacks = out.writebacks = pa.writebacks;
        if (measures) {
            const std::uint32_t wb_stall =
                (op.chain_writebacks + pa.writebacks) * uarch_.wb_latency;
            out.measured =
                model_.chase(op.chain_levels, pa.level, rng_) + wb_stall;
        }
    }
    t.program->onResult(out);
    t.stats.accesses += op.kind == OpKind::Access;
    t.stats.measures += measures;
    t.stats.flushes += flushes;
    maybeAudit();
    const std::uint64_t cost = opCost(level, writebacks) + jitter;
    t.stats.busy_cycles += cost;
    return cost;
}

std::optional<std::uint64_t>
Engine::foldSteady(unsigned idx, std::uint64_t start, std::uint64_t bound)
{
    // The first event that starts at or past `bound` is the caller's
    // (TimeSlice: a timer tick, the slice end or its parent's horizon).
    if (start >= bound || single_ == nullptr)
        return std::nullopt;
    Thread &t = threads_[idx];
    const std::optional<SteadyIteration> it =
        t.program->steadyIteration(start);
    if (!it || it->period == 0 || (it->refs.empty() && it->gap == 0) ||
        start >= it->limit || !single_->steadyL1Hits(it->refs))
        return std::nullopt;

    // Every access is an L1 hit: latency + overhead + one jitter draw,
    // drawn on a copy so a partial iteration can be dropped.
    const std::uint64_t hit_cost = opCost(sim::HitLevel::L1, 0);
    const std::uint64_t period = it->period;
    const std::uint32_t jitter = config_.jitter;
    // Spin-bound: the accesses end before the next deadline even at the
    // highest jitter, and the spin reaches it, so an iteration that
    // starts on a deadline ends on the next one.
    const bool spin_bound =
        it->gap >= period &&
        it->refs.size() * (hit_cost + (jitter ? jitter - 1 : 0)) < period;
    sim::Xoshiro256 rng = rng_;
    std::uint64_t time = start;
    std::uint64_t deadline = it->deadline;
    std::uint64_t clock = 0;
    std::uint64_t wake = 0;
    std::uint64_t busy = 0;
    std::uint64_t iterations = 0;
    while (time < bound && time < it->limit) {
        if (spin_bound && (deadline == time || deadline - time == period) &&
            bound - time >= period) {
            // Iteration j then runs from time + j * period to the next
            // deadline; it runs iff it starts before the limit and its
            // spin ends by the bound.  Only its draws are left to make.
            const std::uint64_t k =
                std::min(it->limit - time - 1, bound - time - period) /
                    period +
                1;
            const std::uint64_t fixed = it->refs.size() * hit_cost;
            std::uint64_t drawn = 0; // the last iteration's jitter
            for (std::uint64_t j = 0; j < k; ++j) {
                drawn = 0;
                for (std::size_t i = 0; i < it->refs.size(); ++i)
                    drawn += rng.below(jitter);
                busy += fixed + drawn;
            }
            clock = time + (k - 1) * period + fixed + drawn;
            time += k * period;
            deadline = time;
            wake = time;
            iterations += k;
            // What is left cannot end its spin by the bound, or starts
            // at or past the limit.
            break;
        }
        // Move the deadline past `time`; usually one period, so try that
        // before paying for a division.
        std::uint64_t d = deadline;
        if (time >= d) {
            d += period;
            if (time >= d)
                d += ((time - d) / period + 1) * period;
        }
        sim::Xoshiro256 draws = rng;
        std::uint64_t end = time;
        for (std::size_t i = 0; i < it->refs.size(); ++i)
            end += hit_cost + draws.below(jitter);
        // Each op after the first, and the spin, starts by `end` at the
        // latest: all must start before the bound and the deadline (a
        // program restarts its iteration at the deadline).  A spin must
        // also finish by the bound rather than be cut at a tick.
        const std::uint64_t w = std::min(end + it->gap, d);
        if (end >= bound || end >= d || w > bound)
            break;
        rng = draws;
        busy += end - time;
        deadline = d;
        clock = end;
        wake = w;
        time = std::max(end, w);
        ++iterations;
    }
    if (iterations == 0)
        return std::nullopt;

    const std::uint64_t accesses = iterations * it->refs.size();
    rng_ = rng;
    sim::PerfCounters &l1 = single_->l1().counters();
    for (const sim::MemRef &ref : it->refs)
        l1.recordMany(ref.thread, iterations, iterations);
    t.stats.accesses += accesses;
    t.stats.spins += iterations;
    t.stats.busy_cycles += busy;
    t.clock = clock;
    t.spin_until = wake;
    t.program->foldSteady(iterations, deadline);
    noteTime(time);
    return time;
}

void
Engine::stepClockThread(unsigned idx)
{
    Thread &t = threads_[idx];
    const Op op = t.program->next(t.clock);

    if (op.kind == OpKind::Done) {
        t.done = true;
        return;
    }
    if (op.kind == OpKind::SpinUntil) {
        // Busy wait: consume time, no cache traffic.  Always make
        // forward progress even for a stale deadline.
        t.clock = std::max(t.clock + 1, op.until);
        ++t.stats.spins;
    } else {
        t.clock += executeOp(idx, op, t.clock);
    }
    noteTime(t.clock);
}

std::uint64_t
Engine::kernelBurst(std::uint32_t core, sim::ThreadId tid, sim::Addr base,
                    std::uint64_t footprint_lines, std::uint64_t mean_lines)
{
    if (mean_lines == 0)
        return 0;
    // The kernel touches a variable number of lines from its working
    // set; the mean is mean_lines.  The whole burst is one batched
    // replay — only the summed latency matters.
    const std::uint64_t count = mean_lines / 2 + rng_.below(mean_lines + 1);
    burst_refs_.resize(count);
    burst_levels_.resize(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const sim::Addr line = base + rng_.below(footprint_lines) * 64;
        burst_refs_[i] = sim::MemRef{line, line, tid, false};
    }
    if (multi_ != nullptr)
        multi_->accessBatch(core, burst_refs_, burst_levels_);
    else
        single_->accessBatch(burst_refs_, burst_levels_);
    std::uint64_t cycles = 0;
    for (std::uint64_t i = 0; i < count; ++i)
        cycles += uarch_.latency(burst_levels_[i]);
    return cycles;
}

std::uint64_t
Engine::run(std::span<const ThreadSpec> specs, unsigned primary)
{
    if (specs.empty())
        throw std::invalid_argument("Engine: at least one thread required");
    if (primary >= specs.size())
        throw std::invalid_argument("Engine: bad primary thread");

    threads_.clear();
    threads_.reserve(specs.size());
    std::vector<unsigned> indices(specs.size());
    for (unsigned i = 0; i < specs.size(); ++i) {
        const ThreadSpec &spec = specs[i];
        if (spec.program == nullptr)
            throw std::invalid_argument("Engine: null thread program");
        if (spec.core >= (multi_ != nullptr ? multi_->cores() : 1))
            throw std::invalid_argument(
                "Engine: thread bound to a core the hierarchy does not have");
        Thread t;
        t.program = spec.program;
        t.core = spec.core;
        t.clock = now_;
        threads_.push_back(t);
        spec.program->setThreadId(i);
        indices[i] = i;
    }
    primary_ = primary;
    policy_.begin(*this, indices);

    while (!threads_[primary_].done) {
        if (!policy_.step(*this, Horizon{}))
            break;
    }
    return now_;
}

std::uint64_t
Engine::run(ThreadProgram &thread0, ThreadProgram &thread1, unsigned primary)
{
    const ThreadSpec specs[2] = {{&thread0, 0}, {&thread1, 0}};
    return run(specs, primary);
}

// ------------------------------------------------------------ TimeSlice

void
TimeSlice::begin(Engine &engine, std::span<const unsigned> threads)
{
    if (threads.empty())
        throw std::invalid_argument(
            "TimeSlice: at least one thread required");
    threads_.assign(threads.begin(), threads.end());
    core_ = engine.thread(threads_[0]).core;
    for (unsigned t : threads_) {
        if (engine.thread(t).core != core_)
            throw std::invalid_argument(
                "TimeSlice: all threads must share one core (nest under "
                "LowestClock for multi-core time-slicing)");
    }
    state_ = State::NeedSlice;
    active_ = 0;
    now_ = engine.now();
    slice_end_ = 0;
    next_tick_ = 0;
}

std::optional<std::uint64_t>
TimeSlice::nextEventTime(const Engine &engine) const
{
    // max_cycles is checked at slice boundaries only, exactly like the
    // seed scheduler: a slice that has started runs to its end.
    if (state_ == State::NeedSlice && now_ >= engine.config().max_cycles)
        return std::nullopt;
    for (unsigned t : threads_) {
        if (!engine.thread(t).done)
            return now_;
    }
    return std::nullopt;
}

bool
TimeSlice::serviceTicks(Engine &engine)
{
    if (config_.tick_period == 0)
        return true;
    if (next_tick_ == 0)
        next_tick_ = now_ + config_.tick_period;
    while (now_ >= next_tick_) {
        // A tick whose kernel burst lasts a whole period is due again at
        // once; only max_cycles ends that loop.
        if (now_ >= engine.config().max_cycles) {
            slice_end_ = now_;
            engine.noteTime(now_);
            return false;
        }
        now_ += engine.kernelBurst(core_, config_.kernel_thread,
                                   config_.kernel_base,
                                   config_.kernel_footprint_lines,
                                   config_.tick_lines);
        next_tick_ += config_.tick_period;
    }
    return true;
}

void
TimeSlice::contextSwitchNoise(Engine &engine)
{
    now_ += engine.kernelBurst(core_, config_.kernel_thread,
                               config_.kernel_base,
                               config_.kernel_footprint_lines,
                               config_.kernel_noise_lines);
}

void
TimeSlice::backgroundSlice(Engine &engine, std::uint64_t slice_end)
{
    for (std::uint32_t i = 0; i < config_.background_lines; ++i) {
        const sim::Addr line = config_.background_base +
            engine.rng().below(config_.background_lines * 4) * 64;
        const sim::MemRef ref{line, line, config_.background_thread, false};
        const auto pa = engine.access(core_, ref);
        now_ += engine.opCost(pa.level, pa.writebacks);
        if (now_ >= slice_end)
            break;
    }
    now_ = std::max(now_, slice_end);
}

void
TimeSlice::openSlice(Engine &engine)
{
    slice_end_ = now_ + config_.quantum +
        (config_.quantum_jitter ? engine.rng().below(config_.quantum_jitter)
                                : 0);

    if (engine.rng().chance(config_.background_prob)) {
        // Another process won this slice.
        backgroundSlice(engine, slice_end_);
        now_ += config_.switch_cost;
        contextSwitchNoise(engine);
        engine.noteTime(now_);
        return; // state stays NeedSlice
    }
    state_ = State::InSlice;
}

void
TimeSlice::closeSlice(Engine &engine)
{
    // Context switch to the next live sibling (or keep running if none).
    now_ += config_.switch_cost;
    contextSwitchNoise(engine);
    engine.noteTime(now_);
    const std::size_t n = threads_.size();
    for (std::size_t k = 1; k <= n; ++k) {
        const std::size_t cand = (active_ + k) % n;
        if (!engine.thread(threads_[cand]).done) {
            active_ = cand;
            break;
        }
    }
    state_ = State::NeedSlice;
}

void
TimeSlice::runInSlice(Engine &engine, bool fold, std::uint64_t horizon_end)
{
    const unsigned idx = threads_[active_];
    auto &t = engine.thread(idx);

    if (!serviceTicks(engine))
        return;
    const std::uint64_t cut = config_.tick_period != 0
                                  ? std::min(slice_end_, next_tick_)
                                  : slice_end_;
    if (t.spin_until > now_) {
        // Busy-waiting burns the slice without cache traffic;
        // fast-forward no further than the next timer tick.
        now_ = std::max(now_ + 1, std::min(t.spin_until, cut));
        engine.noteTime(now_);
        return;
    }
    if (fold) {
        if (const auto end =
                engine.foldSteady(idx, now_, std::min(cut, horizon_end))) {
            now_ = *end;
            return;
        }
    }

    const Op op = t.program->next(now_);
    if (op.kind == OpKind::Done) {
        t.done = true;
    } else if (op.kind == OpKind::SpinUntil) {
        t.spin_until = op.until;
        ++t.stats.spins;
    } else {
        now_ += engine.executeOp(idx, op, now_);
    }
    t.clock = now_;
    engine.noteTime(now_);
}

bool
TimeSlice::step(Engine &engine, Horizon horizon)
{
    std::optional<std::uint64_t> next = nextEventTime(engine);
    if (!next)
        return false;
    // Once the primary is done no event may run: per-event stepping
    // never reaches it (the run loop exits first), and a slice switch's
    // RNG draws must not happen.
    const Engine::Thread &primary = engine.thread(engine.primary());
    const std::uint64_t end = horizon.end();
    do {
        if (state_ == State::NeedSlice) {
            openSlice(engine);
            continue;
        }
        const Engine::Thread &t = engine.thread(threads_[active_]);
        if (now_ >= slice_end_ || t.done) {
            closeSlice(engine);
            continue;
        }
        // Within a slice no other actor on this core has events: only
        // the resident thread runs, and ticks and background work are
        // serviced inside runInSlice.  So this loop runs its events
        // without a nextEventTime() round trip per op.  The resident
        // program may fold its steady iterations (Engine::foldSteady);
        // others pay one predictable branch per op.
        const bool fold = t.program->offersSteady();
        do {
            runInSlice(engine, fold, end);
        } while (now_ < slice_end_ && !t.done && now_ < end);
    } while (!primary.done && (next = nextEventTime(engine)) &&
             *next < end);
    return true;
}

// ---------------------------------------------------------- LowestClock

void
LowestClock::nest(std::uint32_t core,
                  std::unique_ptr<ArbitrationPolicy> child)
{
    for (const auto &[c, policy] : policies_) {
        if (c == core)
            throw std::logic_error(
                "LowestClock: core already has a nested policy");
    }
    policies_.emplace_back(core, std::move(child));
}

void
LowestClock::begin(Engine &engine, std::span<const unsigned> threads)
{
    // Partition the thread set by core, ascending core id, preserving
    // spec order within a core.
    children_.clear();
    std::vector<std::uint32_t> core_ids;
    for (unsigned t : threads) {
        const std::uint32_t core = engine.thread(t).core;
        if (std::find(core_ids.begin(), core_ids.end(), core) ==
            core_ids.end())
            core_ids.push_back(core);
    }
    std::sort(core_ids.begin(), core_ids.end());

    // A nested policy for a core no thread is bound to would silently
    // never run; that is a wiring bug, fail like the other binding
    // errors do.
    for (const auto &[core, policy] : policies_) {
        if (std::find(core_ids.begin(), core_ids.end(), core) ==
            core_ids.end())
            throw std::invalid_argument(
                "LowestClock: nested policy for a core with no bound "
                "threads");
    }

    for (std::uint32_t core : core_ids) {
        std::vector<unsigned> group;
        for (unsigned t : threads) {
            if (engine.thread(t).core == core)
                group.push_back(t);
        }

        ArbitrationPolicy *child = nullptr;
        for (const auto &[c, policy] : policies_) {
            if (c == core) {
                child = policy.get();
                break;
            }
        }
        if (child == nullptr) {
            for (unsigned t : group)
                children_.push_back(Child{nullptr, t});
            continue;
        }
        child->begin(engine, group);
        children_.push_back(Child{child, 0});
    }
}

LowestClock::Pick
LowestClock::pick(const Engine &engine) const
{
    // Step the child whose next event is earliest (ties toward the
    // lowest core id; within a core, toward spec order).  A bare thread
    // is runnable while live and below max_cycles.  One scan keeps the
    // earliest child and the runner-up; an idle child reads as kIdle,
    // later than any clock, and the strict compares keep every tie on
    // the lower index.
    const bool bare_runnable = engine.now() < engine.config().max_cycles;
    Pick best{children_.size(), kIdle, children_.size(), kIdle};
    for (std::size_t i = 0; i < children_.size(); ++i) {
        const Child &child = children_[i];
        std::uint64_t time = kIdle;
        if (child.policy == nullptr) {
            const Engine::Thread &ctx = engine.thread(child.thread);
            time = bare_runnable && !ctx.done ? ctx.clock : kIdle;
        } else if (const auto next = child.policy->nextEventTime(engine)) {
            time = *next;
        }
        const bool first = time < best.time;
        const bool second = !first && time < best.runner_time;
        best.runner_time = first ? best.time
                                 : (second ? time : best.runner_time);
        best.runner = first ? best.index : (second ? i : best.runner);
        best.time = first ? time : best.time;
        best.index = first ? i : best.index;
    }
    return best;
}

std::optional<std::uint64_t>
LowestClock::nextEventTime(const Engine &engine) const
{
    const Pick best = pick(engine);
    if (best.index == children_.size())
        return std::nullopt;
    return best.time;
}

bool
LowestClock::step(Engine &engine, Horizon horizon)
{
    const Pick best = pick(engine);
    if (best.index == children_.size())
        return false;
    // Stepping a child moves only its own next event (and the engine's
    // high-water clock), so every other child's next event stays where
    // the scan found it, or drops out at max_cycles.  A re-scan would
    // therefore pick the same child for as long as its next (time,
    // index) stays below the runner-up's: that is the child's horizon,
    // unless this policy's own is earlier.
    const Horizon runner{best.runner_time, best.index < best.runner};
    const Horizon bound = runner.end() < horizon.end() ? runner : horizon;
    const Child &child = children_[best.index];
    if (child.policy != nullptr)
        return child.policy->step(engine, bound);
    // Run-ahead: a bare thread steps inline up to its horizon — the same
    // ops, the same RNG draws, without a scan per op.  The thread
    // finishing (the primary among them) or max_cycles ends the run, as
    // a re-scan would.
    const Engine::Thread &t = engine.thread(child.thread);
    const std::uint64_t max_cycles = engine.config().max_cycles;
    const std::uint64_t end = bound.end();
    do {
        engine.stepClockThread(child.thread);
    } while (!t.done && engine.now() < max_cycles && t.clock < end);
    return true;
}

// ---------------------------------------------------------------- noise

NoiseProgram::NoiseProgram(NoiseConfig config)
    : config_(config), rng_(config.seed)
{
}

Op
NoiseProgram::next(std::uint64_t now)
{
    if (in_burst_ >= config_.burst) {
        in_burst_ = 0;
        return Op::spinUntil(now + config_.gap);
    }
    ++in_burst_;
    const sim::Addr line = config_.base +
        rng_.below(config_.footprint_sets) * 64 +
        rng_.below(config_.lines_per_set) * config_.set_stride;
    return Op::access(sim::MemRef::load(line, threadId()));
}

} // namespace lruleak::exec
