/**
 * @file
 * Randomized differential suite for the TimeSlice slice-event fast
 * path: one TimeSlice step() runs every event its horizon admits (as a
 * root policy, the whole run), but the op order, every RNG draw, every
 * measured latency and the whole run end (compare::expectSameRun, in
 * same_topology.hpp) must be identical to per-event stepping.  The per-event reference is the
 * same TimeSlice wrapped in reference::PerEvent, which hands it a closed
 * horizon on every call (per_op_policy.hpp); each run checks that the
 * wrapper really ran one event per call.  The suite sweeps
 * quantum/jitter/tick grids and random program mixes.
 *
 * The same pair is the oracle for the steady-iteration fold, which runs
 * inside the slice loop up to the horizon: randomized LruSender
 * configurations (and a store loop) must leave identical samples,
 * clocks, telemetry, perf counters, sender state and RNG stream with
 * and without it, and so must random horizons handed down by a test
 * parent that interleaves its own RNG draws.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "channel/lru_channel.hpp"
#include "exec/engine.hpp"
#include "per_op_policy.hpp"
#include "random_program.hpp"
#include "same_topology.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::exec;
using compare::RunEnd;
using differential::GridCell;
using differential::policyFor;

namespace {

/** A random script with this suite's op mix and spin range. */
std::unique_ptr<differential::RandomProgram>
randomProgram(std::uint64_t seed, std::size_t ops, sim::Addr base)
{
    return std::make_unique<differential::RandomProgram>(
        seed, ops, base, differential::OpMix{55, 70, 80}, 700);
}

/**
 * A parent that hands its one child seeded random horizons and, after
 * each child step, makes a sibling's event: one draw from the engine
 * RNG, as another core's op would.  From the child's next event time t
 * the horizon is t (a quarter of the draws), t plus under 100 cycles (a
 * quarter) or t plus under 200k cycles, half of them with the tie.
 * With @p per_event it steps the child one event at a time (a closed
 * horizon) while its next event is inside the drawn horizon: the
 * reference for handing the horizon down.
 */
class HorizonParent final : public ArbitrationPolicy
{
  public:
    HorizonParent(std::unique_ptr<ArbitrationPolicy> child,
                  std::uint64_t seed, bool per_event)
        : child_(std::move(child)), rng_(seed), per_event_(per_event)
    {}

    void
    begin(Engine &engine, std::span<const unsigned> threads) override
    {
        child_->begin(engine, threads);
    }

    std::optional<std::uint64_t>
    nextEventTime(const Engine &engine) const override
    {
        return child_->nextEventTime(engine);
    }

    bool
    step(Engine &engine, Horizon) override
    {
        std::optional<std::uint64_t> next = child_->nextEventTime(engine);
        if (!next)
            return false;
        const std::uint64_t draw = rng_.below(4);
        const std::uint64_t offset =
            draw == 0 ? 0 : rng_.below(draw == 1 ? 100 : 200'000);
        const Horizon horizon{*next + offset, rng_.chance(0.5)};
        if (per_event_) {
            const Engine::Thread &primary = engine.thread(engine.primary());
            do {
                child_->step(engine, Horizon{0, false});
            } while (!primary.done &&
                     (next = child_->nextEventTime(engine)) &&
                     *next < horizon.end());
        } else {
            child_->step(engine, horizon);
        }
        engine.rng()();
        return true;
    }

  private:
    std::unique_ptr<ArbitrationPolicy> child_;
    sim::Xoshiro256 rng_;
    bool per_event_;
};

/** How one run steps its TimeSlice. */
enum class Stepping
{
    Root,      //!< root policy: the open horizon, slice loop and fold
    PerEvent,  //!< wrapped in reference::PerEvent: one event per call
    SoleChild, //!< the only child of a LowestClock: the open horizon
    Horizons,  //!< under a HorizonParent
    HorizonsPerEvent, //!< under a per-event HorizonParent
};

/** The engine shape of one run (see Stepping); @p seed seeds a
 *  HorizonParent's draws. */
std::unique_ptr<ArbitrationPolicy>
timeSlicePolicy(const TimeSlicePolicyConfig &pc, Stepping stepping,
                std::uint64_t seed = 0)
{
    auto slice = std::make_unique<TimeSlice>(pc);
    switch (stepping) {
      case Stepping::Root:
        break;
      case Stepping::PerEvent:
        return std::make_unique<reference::PerEvent>(std::move(slice));
      case Stepping::SoleChild: {
        auto parent = std::make_unique<LowestClock>();
        parent->nest(0, std::move(slice));
        return parent;
      }
      case Stepping::Horizons:
      case Stepping::HorizonsPerEvent:
        return std::make_unique<HorizonParent>(
            std::move(slice), seed, stepping == Stepping::HorizonsPerEvent);
    }
    return slice;
}

/** The per-event side of a run really ran one event per call: never
 *  more than one program op per call (these programs yield no
 *  MeasureFlush, which ThreadStats counts twice), and more calls than
 *  ops (slice opens are events too). */
void
expectOneEventPerCall(const ArbitrationPolicy &policy, const Engine &engine)
{
    const auto *per_event = dynamic_cast<const reference::PerEvent *>(&policy);
    if (per_event == nullptr)
        return;
    std::uint64_t ops = 0;
    for (unsigned t = 0; t < engine.threadCount(); ++t)
        ops += engine.stats(t).totalOps();
    EXPECT_EQ(per_event->maxOpsPerStep(), 1u);
    EXPECT_GT(per_event->steps(), ops);
}

/**
 * Run @p p0 and @p p1 (the primary) on a CacheHierarchy built from
 * @p hc under a TimeSlice of @p pc stepped as @p stepping (a
 * HorizonParent draws from ec.seed).  The record owns both programs and
 * names the slice's kernel and background ids.
 */
RunEnd
runSliced(std::unique_ptr<ThreadProgram> p0,
          std::unique_ptr<ThreadProgram> p1, const TimeSlicePolicyConfig &pc,
          Stepping stepping, const EngineConfig &ec,
          const sim::HierarchyConfig &hc = {},
          const timing::Uarch &uarch = timing::Uarch::intelXeonE52690())
{
    RunEnd out(hc);
    ThreadProgram &t0 = out.own(std::move(p0));
    ThreadProgram &t1 = out.own(std::move(p1));
    const auto policy = timeSlicePolicy(pc, stepping, ec.seed);
    Engine engine(out.hierarchy(), uarch, *policy, ec);
    engine.run(t0, t1, 1);
    expectOneEventPerCall(*policy, engine);
    out.record(engine, {pc.kernel_thread, pc.background_thread});
    return out;
}

/** Run both stepping modes for one config+seed; compare everything. */
void
runCell(const GridCell &cell, std::uint64_t seed)
{
    auto run = [&](Stepping stepping) {
        return runSliced(randomProgram(seed * 17, 1500, 0x10000),
                         randomProgram(seed * 19, 1200, 0x50000),
                         policyFor(cell), stepping, {.seed = seed});
    };
    const RunEnd per_op = run(Stepping::PerEvent);
    const RunEnd sliced = run(Stepping::Root);
    SCOPED_TRACE(testing::Message() << "quantum " << cell.quantum << " seed "
                                    << seed);
    compare::expectSameRun(per_op, sliced);
    differential::expectSameTraces(per_op, sliced);
}

/** The differential grid: quantum, jitter, tick and background mixes. */
constexpr GridCell kGrid[] = {
    // Small quanta: many slices, switches, background slices.
    {5'000, 2'000, 2'500, 0.3},
    // Quantum smaller than a typical op run: degenerate slices.
    {500, 0, 0, 0.0},
    // Tick-dominated: several ticks per slice.
    {20'000, 5'000, 1'000, 0.2},
    // No jitter, no background: pure rotation.
    {8'000, 0, 4'000, 0.0},
    // Large quantum: whole program inside one slice.
    {50'000'000, 10'000'000, 1'000'000, 0.25},
};

/** The paper's true OS quantum with the default jitter/tick knobs. */
constexpr GridCell kTrueQuantum{150'000'000, 80'000'000, 4'000'000, 0.25};

TEST(SliceEvents, EquivalentToPerOpSteppingAcrossQuantumGrid)
{
    for (const GridCell &cell : kGrid) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed)
            runCell(cell, seed);
    }
}

TEST(SliceEvents, TrueQuantumScaleMatchesPerOpStepping)
{
    // The production scale: paper-faithful 1.5e8-cycle quanta with the
    // default jitter/tick knobs.  Per-event stepping can still afford this
    // at test sizes; the equality here is what licenses the fast path
    // for the fig6/fig15/channel_matrix experiments.
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runCell(kTrueQuantum, seed);
}

// ------------------------------------------------ steady-iteration fold

/** An LruSender that counts next() calls, to see the fold fire. */
class CountingSender : public channel::LruSender
{
  public:
    using LruSender::LruSender;

    Op
    next(std::uint64_t now) override
    {
        ++calls_;
        return LruSender::next(now);
    }

    std::uint64_t calls() const { return calls_; }

  private:
    std::uint64_t calls_ = 0;
};

/** One randomized sender/receiver pair on one core. */
struct FoldCase
{
    sim::ReplPolicyKind policy = sim::ReplPolicyKind::TreePlru;
    bool way_predictor = false;
    bool shared_same_vaddr = true;
    channel::SenderConfig sender;
    channel::ReceiverConfig receiver;
};

/**
 * Draw a case: bit 0/1, constant (infinite) or finite multi-bit
 * messages, Ts below and above encode_gap (sometimes shorter than one
 * iteration, so iterations are cut at the deadline), 0-3 stack lines,
 * the AMD way predictor with aliased or same-address shared lines.
 */
FoldCase
randomFoldCase(sim::ReplPolicyKind policy, std::uint64_t seed)
{
    sim::Xoshiro256 rng(seed);
    FoldCase c;
    c.policy = policy;
    c.way_predictor = rng.chance(0.3);
    c.shared_same_vaddr = !c.way_predictor || rng.chance(0.5);

    channel::SenderConfig &sc = c.sender;
    sc.alg = rng.chance(0.5) ? channel::LruAlgorithm::Alg1Shared
                             : channel::LruAlgorithm::Alg2Disjoint;
    const std::uint32_t gaps[] = {1'000, 5'000, 20'000};
    sc.encode_gap = gaps[rng.below(3)];
    sc.stack_lines = static_cast<std::uint32_t>(rng.below(4));
    if (rng.chance(0.4)) {
        sc.message = {static_cast<std::uint8_t>(rng.below(2))};
        sc.infinite = true;
    } else {
        const std::uint64_t len = 2 + rng.below(11);
        for (std::uint64_t i = 0; i < len; ++i)
            sc.message.push_back(static_cast<std::uint8_t>(rng.below(2)));
        sc.repeats = 1 + static_cast<std::uint32_t>(rng.below(3));
    }
    const std::uint64_t gap = sc.encode_gap;
    if (!sc.infinite && rng.chance(0.25))
        sc.ts = 20 + rng.below(60); // shorter than one iteration
    else if (rng.chance(0.5))
        sc.ts = gap / 2 + rng.below(gap / 2); // below encode_gap
    else
        sc.ts = gap + 1 + rng.below(4 * gap); // above encode_gap

    channel::ReceiverConfig &rc = c.receiver;
    rc.alg = sc.alg;
    rc.d = 1 + static_cast<std::uint32_t>(rng.below(8));
    rc.tr = 2'000 + rng.below(40'000);
    rc.max_samples = 24;
    return c;
}

/** One FoldCase run: the sender is program 0, the receiver program 1. */
RunEnd
runFoldCase(const FoldCase &c, const GridCell &cell, std::uint64_t seed,
            Stepping stepping)
{
    sim::HierarchyConfig hc;
    hc.l1 = sim::CacheConfig::intelL1d(c.policy);
    hc.l1.seed = seed;
    hc.l1_way_predictor = c.way_predictor;
    const channel::ChannelLayout layout(hc.l1, 7, 63, c.shared_same_vaddr);

    return runSliced(
        std::make_unique<CountingSender>(layout, c.sender),
        std::make_unique<channel::LruReceiver>(layout, c.receiver),
        policyFor(cell), stepping, {.seed = seed}, hc,
        c.way_predictor ? timing::Uarch::amdEpyc7571()
                        : timing::Uarch::intelXeonE52690());
}

const CountingSender &
senderOf(const RunEnd &run)
{
    return *run.program<CountingSender>(0);
}

/** next() calls the sender saw per-event and folded. */
struct SenderCalls
{
    std::uint64_t per_op = 0;
    std::uint64_t folded = 0;
};

/** Compare one case stepped as @p stepping (folding) against it stepped
 *  as @p reference (one event per call). */
SenderCalls
expectFoldExact(const FoldCase &c, const GridCell &cell, std::uint64_t seed,
                Stepping stepping = Stepping::Root,
                Stepping reference = Stepping::PerEvent)
{
    const RunEnd per_op = runFoldCase(c, cell, seed, reference);
    const RunEnd folded = runFoldCase(c, cell, seed, stepping);
    SCOPED_TRACE(testing::Message()
                 << sim::replPolicyName(c.policy) << " quantum "
                 << cell.quantum << " seed " << seed << " ts "
                 << c.sender.ts << " gap " << c.sender.encode_gap
                 << " stack " << c.sender.stack_lines << " bits "
                 << c.sender.message.size() << " wp " << c.way_predictor);

    compare::expectSameRun(per_op, folded);
    const auto &a = per_op.program<channel::LruReceiver>(1)->samples();
    const auto &b = folded.program<channel::LruReceiver>(1)->samples();
    EXPECT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        EXPECT_EQ(a[i].tsc, b[i].tsc) << i;
        EXPECT_EQ(a[i].latency, b[i].latency) << i;
        EXPECT_EQ(a[i].level, b[i].level) << i;
    }
    EXPECT_EQ(senderOf(per_op).encodeLevels(),
              senderOf(folded).encodeLevels());
    EXPECT_LE(senderOf(folded).calls(), senderOf(per_op).calls());
    return {senderOf(per_op).calls(), senderOf(folded).calls()};
}

TEST(SteadyFold, SenderMatchesPerOpSteppingAcrossQuantumGrid)
{
    std::uint64_t saved = 0;
    std::uint64_t case_seed = 100;
    for (const GridCell &cell : kGrid) {
        for (sim::ReplPolicyKind kind : sim::allReplPolicyKinds()) {
            for (std::uint64_t seed = 1; seed <= 2; ++seed) {
                const SenderCalls calls = expectFoldExact(
                    randomFoldCase(kind, ++case_seed), cell, seed);
                saved += calls.per_op - calls.folded;
            }
        }
    }
    EXPECT_GT(saved, 0u) << "the fold never fired";
}

TEST(SteadyFold, SenderMatchesPerOpSteppingAtTrueQuantum)
{
    // The fig6/8/15 regime: whole slices of repeated L1-hit iterations.
    std::uint64_t saved = 0;
    std::uint64_t case_seed = 500;
    for (sim::ReplPolicyKind kind : sim::allReplPolicyKinds()) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            const SenderCalls calls = expectFoldExact(
                randomFoldCase(kind, ++case_seed), kTrueQuantum, seed);
            saved += calls.per_op - calls.folded;
        }
    }
    EXPECT_GT(saved, 0u) << "the fold never fired";
}

TEST(SteadyFold, ConstantBitAtTrueQuantumFoldsAlmostEverything)
{
    // fig6's shape: constant bit, Ts below encode_gap.  Both bits fold,
    // and the sender's next() calls drop by orders of magnitude.
    for (std::uint8_t bit : {0, 1}) {
        FoldCase c;
        c.sender.message = {bit};
        c.sender.infinite = true;
        c.sender.ts = 6'000;
        c.sender.encode_gap = 20'000;
        c.receiver.d = 8;
        c.receiver.tr = 25'000;
        c.receiver.max_samples = 24;
        const SenderCalls calls = expectFoldExact(c, kTrueQuantum, 3);
        EXPECT_LT(calls.folded * 100, calls.per_op) << "bit " << int(bit);
    }
}

/**
 * A steady loop with stores: the LruSender iteration shape (refs, then a
 * spin to min(end + gap, deadline), restarted at each deadline) over
 * arbitrary loads and stores, never-ending, folding as the sender does.
 */
class StoreLoop : public ThreadProgram
{
  public:
    StoreLoop(std::vector<sim::MemRef> refs, std::uint64_t gap,
              std::uint64_t period)
        : refs_(std::move(refs)), gap_(gap), period_(period)
    {
        setOffersSteady(true);
    }

    Op
    next(std::uint64_t now) override
    {
        if (!started_) {
            started_ = true;
            deadline_ = now + period_;
        }
        while (now >= deadline_) {
            deadline_ += period_;
            ++periods_;
            step_ = 0;
        }
        if (step_ < refs_.size())
            return Op::access(refs_[step_++]);
        step_ = 0;
        return Op::spinUntil(std::min(now + gap_, deadline_));
    }

    void
    onResult(const OpResult &result) override
    {
        ++levels_[static_cast<std::size_t>(result.level)];
    }

    std::optional<SteadyIteration>
    steadyIteration(std::uint64_t now) const override
    {
        if (!started_ || step_ != 0)
            return std::nullopt;
        std::uint64_t d = deadline_;
        if (now >= d)
            d += ((now - d) / period_ + 1) * period_;
        return SteadyIteration{refs_, gap_, d, period_, ~std::uint64_t{0}};
    }

    void
    foldSteady(std::uint64_t iterations, std::uint64_t deadline) override
    {
        periods_ += (deadline - deadline_) / period_;
        deadline_ = deadline;
        levels_[static_cast<std::size_t>(sim::HitLevel::L1)] +=
            iterations * refs_.size();
    }

    bool
    operator==(const StoreLoop &o) const
    {
        return deadline_ == o.deadline_ && periods_ == o.periods_ &&
               levels_ == o.levels_;
    }

  private:
    std::vector<sim::MemRef> refs_;
    std::uint64_t gap_;
    std::uint64_t period_;
    bool started_ = false;
    std::size_t step_ = 0;
    std::uint64_t deadline_ = 0;
    std::uint64_t periods_ = 0;
    std::array<std::uint64_t, 5> levels_{};
};

TEST(SteadyFold, StoresMatchPerOpSteppingUnderEveryWritePolicy)
{
    // Stores fold into a write-back L1 once their lines are dirty; a
    // write-through L1 forwards every store and must never fold.
    std::uint64_t case_seed = 900;
    const GridCell cells[] = {kGrid[0], kGrid[2], kGrid[4], kTrueQuantum};
    for (const GridCell &cell : cells) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            sim::Xoshiro256 rng(++case_seed);
            sim::HierarchyConfig hc;
            hc.l1 = sim::CacheConfig::intelL1d(
                sim::allReplPolicyKinds()[rng.below(6)]);
            hc.l1.write_hit = rng.chance(0.7)
                                  ? sim::WriteHitPolicy::WriteBack
                                  : sim::WriteHitPolicy::WriteThrough;
            hc.l1.write_miss = rng.chance(0.7)
                                   ? sim::WriteMissPolicy::WriteAllocate
                                   : sim::WriteMissPolicy::NoWriteAllocate;
            std::vector<sim::MemRef> refs;
            const std::uint64_t n = 1 + rng.below(4);
            for (std::uint64_t i = 0; i < n; ++i) {
                const sim::Addr a = 0x10000 + rng.below(96) * 64;
                refs.push_back(sim::MemRef{a, a, 0, rng.chance(0.5)});
            }
            const std::uint64_t gap = 500 + rng.below(5'000);
            const std::uint64_t period = 300 + rng.below(10'000);

            auto run = [&](Stepping stepping) {
                return runSliced(
                    std::make_unique<StoreLoop>(refs, gap, period),
                    randomProgram(seed * 23, 600, 0x50000), policyFor(cell),
                    stepping, {.seed = seed}, hc);
            };
            const RunEnd per_op = run(Stepping::PerEvent);
            const RunEnd folded = run(Stepping::Root);
            SCOPED_TRACE(testing::Message() << "quantum " << cell.quantum
                                            << " case " << case_seed);
            compare::expectSameRun(per_op, folded);
            differential::expectSameTraces(per_op, folded);
            EXPECT_TRUE(*per_op.program<StoreLoop>(0) ==
                        *folded.program<StoreLoop>(0));
        }
    }
}

/**
 * A spin-bound steady loop (the fig6 sender's shape): its loads, then a
 * spin to the next deadline, with the deadlines on the multiples of the
 * period.  An iteration that starts at or past `limit` drops its first
 * load, so folding one iteration past the offer's limit shows.  Counts
 * the next() calls before the limit: the fold should leave none of
 * those iterations to per-op stepping but the first.
 */
class SpinLoop : public ThreadProgram
{
  public:
    SpinLoop(std::vector<sim::MemRef> refs, std::uint64_t gap,
             std::uint64_t period, std::uint64_t limit)
        : refs_(std::move(refs)), gap_(gap), period_(period), limit_(limit)
    {
        setOffersSteady(true);
    }

    Op
    next(std::uint64_t now) override
    {
        if (now < limit_)
            ++early_calls_;
        if (!started_) {
            started_ = true;
            deadline_ = (now / period_ + 1) * period_;
        }
        while (now >= deadline_) {
            deadline_ += period_;
            step_ = 0;
        }
        if (step_ == 0) {
            late_ = now >= limit_;
            ++iterations_;
        }
        const std::span<const sim::MemRef> refs = refsOf(late_);
        if (step_ < refs.size())
            return Op::access(refs[step_++]);
        step_ = 0;
        return Op::spinUntil(std::min(now + gap_, deadline_));
    }

    std::optional<SteadyIteration>
    steadyIteration(std::uint64_t now) const override
    {
        if (!started_ || step_ != 0)
            return std::nullopt;
        std::uint64_t d = deadline_;
        if (now >= d)
            d += ((now - d) / period_ + 1) * period_;
        const bool late = now >= limit_;
        return SteadyIteration{refsOf(late), gap_, d, period_,
                               late ? ~std::uint64_t{0} : limit_};
    }

    void
    foldSteady(std::uint64_t iterations, std::uint64_t deadline) override
    {
        deadline_ = deadline;
        iterations_ += iterations;
    }

    std::uint64_t earlyCalls() const { return early_calls_; }

    bool
    operator==(const SpinLoop &o) const
    {
        return deadline_ == o.deadline_ && iterations_ == o.iterations_;
    }

  private:
    std::span<const sim::MemRef>
    refsOf(bool late) const
    {
        return std::span<const sim::MemRef>(refs_).subspan(
            late && !refs_.empty() ? 1 : 0);
    }

    std::vector<sim::MemRef> refs_;
    std::uint64_t gap_;
    std::uint64_t period_;
    std::uint64_t limit_;
    bool started_ = false;
    bool late_ = false;
    std::size_t step_ = 0;
    std::uint64_t deadline_ = 0;
    std::uint64_t iterations_ = 0;
    std::uint64_t early_calls_ = 0;
};

/**
 * Fold against per-op stepping, the loop first: its whole first slice
 * (quantum @p quantum, ticks every @p tick), then the other program's,
 * which ends the run.  Compares everything the fold writes.  Returns
 * the folded run.
 */
RunEnd
expectSpinFoldExact(std::size_t n_refs, std::uint32_t jitter,
                    std::uint64_t quantum, std::uint64_t tick,
                    std::uint64_t limit)
{
    constexpr std::uint64_t kPeriod = 6'000;
    std::vector<sim::MemRef> refs;
    for (std::size_t i = 0; i < n_refs; ++i)
        refs.push_back(sim::MemRef::load(0x20000 + (5 + i * 64) * 64));
    TimeSlicePolicyConfig pc = policyFor(GridCell{quantum, 0, tick, 0.0});
    // One kernel line, in set 0: ticks cost a few L1 hits and never
    // evict the loop's lines (set 5), so only the bounds and the limit
    // can stop a fold.
    pc.kernel_footprint_lines = 1;
    auto run = [&](Stepping stepping) {
        return runSliced(
            std::make_unique<SpinLoop>(refs, 20'000, kPeriod, limit),
            randomProgram(7, 40, 0x50000), pc, stepping,
            {.jitter = jitter, .seed = 5});
    };
    const RunEnd per_op = run(Stepping::PerEvent);
    RunEnd folded = run(Stepping::Root);
    SCOPED_TRACE(testing::Message()
                 << "refs " << n_refs << " jitter " << jitter << " quantum "
                 << quantum << " tick " << tick << " limit " << limit);
    compare::expectSameRun(per_op, folded);
    differential::expectSameTraces(per_op, folded);
    const SpinLoop &per_op_loop = *per_op.program<SpinLoop>(0);
    const SpinLoop &folded_loop = *folded.program<SpinLoop>(0);
    EXPECT_TRUE(per_op_loop == folded_loop);
    EXPECT_GT(per_op_loop.earlyCalls(), folded_loop.earlyCalls());
    return folded;
}

TEST(SteadyFold, SpinBoundMatchesPerOpSteppingWithBoundsOnDeadlines)
{
    // Ticks every 10 periods and the slice end at 50 land exactly on
    // deadlines: each fold runs up to its bound with no iteration left
    // over.  After a tick's kernel burst the fold starts mid-period.
    // The limit falls one cycle after the start of period 23.
    for (std::uint32_t jitter : {0u, 1u, 4u}) {
        for (std::size_t n = 0; n <= 3; ++n) {
            const RunEnd folded = expectSpinFoldExact(
                n, jitter, 300'000, 60'000, 23 * 6'000 + 1);
            // Only the first iteration, and nothing past it, steps
            // per-op: the limit and every bound cost no extra op.
            EXPECT_EQ(folded.program<SpinLoop>(0)->earlyCalls(), n + 1)
                << "refs " << n << " jitter " << jitter;
        }
    }
}

TEST(SteadyFold, SpinBoundMatchesPerOpSteppingWithBoundsMidPeriod)
{
    // Ticks, the slice end and the limit all fall inside a period.
    for (std::uint32_t jitter : {0u, 1u, 4u}) {
        for (std::size_t n = 0; n <= 3; ++n)
            expectSpinFoldExact(n, jitter, 301'234, 58'333, 97'777);
    }
}

TEST(SteadyFold, SoleNestedChildFoldsLikeRoot)
{
    // A TimeSlice nested alone under LowestClock on a single-core
    // hierarchy has no runner-up, so it gets the open horizon: it folds
    // exactly the iterations the root TimeSlice folds, and both match
    // per-event stepping.
    std::uint64_t case_seed = 700;
    for (const GridCell &cell : {kGrid[2], kTrueQuantum}) {
        for (sim::ReplPolicyKind kind : sim::allReplPolicyKinds()) {
            const FoldCase c = randomFoldCase(kind, ++case_seed);
            const SenderCalls nested =
                expectFoldExact(c, cell, 1, Stepping::SoleChild);
            const RunEnd root = runFoldCase(c, cell, 1, Stepping::Root);
            EXPECT_EQ(nested.folded, senderOf(root).calls())
                << sim::replPolicyName(kind) << " quantum " << cell.quantum;
        }
    }
    FoldCase fig6;
    fig6.sender.message = {1};
    fig6.sender.infinite = true;
    fig6.sender.ts = 6'000;
    fig6.sender.encode_gap = 20'000;
    fig6.receiver.d = 8;
    fig6.receiver.tr = 25'000;
    fig6.receiver.max_samples = 24;
    const SenderCalls calls =
        expectFoldExact(fig6, kTrueQuantum, 3, Stepping::SoleChild);
    EXPECT_LT(calls.folded * 100, calls.per_op) << "the sole child never folded";
}

TEST(SteadyFold, RandomHorizonsMatchPerEvent)
{
    // A test parent hands the TimeSlice random horizons (a quarter of
    // them at its next event time, half with the tie) and draws from the
    // engine RNG after each step, as a sibling core's op would.  Stepped
    // one event at a time up to the same horizons, with the same sibling
    // draws, the run must be identical: a fold past a horizon would put
    // its jitter draws on the wrong side of a sibling's.
    std::uint64_t saved = 0;
    std::uint64_t case_seed = 800;
    for (const GridCell &cell : {kGrid[0], kGrid[2], kGrid[4], kTrueQuantum}) {
        for (sim::ReplPolicyKind kind : sim::allReplPolicyKinds()) {
            ++case_seed;
            const SenderCalls calls = expectFoldExact(
                randomFoldCase(kind, case_seed), cell, case_seed,
                Stepping::Horizons, Stepping::HorizonsPerEvent);
            saved += calls.per_op - calls.folded;
        }
    }
    EXPECT_GT(saved, 0u) << "the fold never fired under a horizon";
}

TEST(SteadyFold, NestedUnderLowestClockNeverFolds)
{
    // A multi-core engine never confirms a steady iteration: the sender
    // steps op by op, even as a sole child with the open horizon.
    sim::MultiCoreConfig mc;
    mc.cores = 1;
    sim::MultiCoreHierarchy h(mc);
    const channel::ChannelLayout layout;
    channel::SenderConfig sc;
    sc.message = {1};
    sc.infinite = true;
    sc.ts = 6'000;
    sc.encode_gap = 20'000;
    channel::ReceiverConfig rc;
    rc.tr = 25'000;
    rc.max_samples = 8;
    CountingSender sender(layout, sc);
    channel::LruReceiver receiver(layout, rc);
    const auto policy =
        timeSlicePolicy(policyFor(kGrid[0]), Stepping::SoleChild);
    Engine engine(h, timing::Uarch::intelXeonE52690(), *policy);
    engine.run(sender, receiver, 1);
    // One next() per executed op: nothing was folded.
    EXPECT_EQ(sender.calls(), engine.stats(0).totalOps());
}

} // namespace
