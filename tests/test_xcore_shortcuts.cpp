/**
 * @file
 * The two exact shortcuts of a cross-core step, each against the path
 * it short-cuts:
 *
 *  - LowestClockRunAhead: a bare thread under LowestClock keeps stepping
 *    while its clock stays below the runner-up's.  Across cores, the
 *    reference runs the same threads each under a one-thread nested
 *    reference::PerOpLowestClock, which LowestClock steps one op at a
 *    time.  On one core (the production hyper-threaded schedule), the
 *    reference is a root PerOpLowestClock over the same threads.
 *  - MultiCoreL1HitExit: a plain L1 serves a hit in
 *    MultiCoreHierarchy::access with one probe (and a plain level does
 *    the same inside Cache::access).  The reference runs the same stream
 *    through a DAWG level with one domain, which partitions nothing and
 *    takes the general set path.
 *
 * Both compare everything the shortcut could disturb through the one
 * run comparison (same_topology.hpp): every set of every level, the
 * perf counters, the write-back counts, and for the engine
 * (compare::expectSameRun) the thread clocks, spin deadlines, done
 * flags, ThreadStats, the RNG state and its next draw.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "per_op_policy.hpp"
#include "same_topology.hpp"
#include "sim/random.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::exec;
using sim::MultiCoreConfig;
using sim::MultiCoreHierarchy;
using compare::RunEnd;

namespace {

/** Small levels, so a short stream hits, misses, evicts dirty lines and
 *  back-invalidates. */
MultiCoreConfig
smallTopology(std::uint32_t cores)
{
    MultiCoreConfig mc;
    mc.cores = cores;
    mc.l1 = sim::CacheConfig{"L1D", 4 * 1024, 8, 64};
    mc.l2 = sim::CacheConfig{"L2", 8 * 1024, 8, 64};
    mc.llc = sim::CacheConfig{"LLC", 16 * 1024, 16, 64};
    return mc;
}

// ------------------------------------------------- LowestClock run-ahead

/**
 * A seeded mix of loads, stores and spins to the next multiple of
 * `period`: the aligned spins land threads on the same clock, so ties
 * between children are common.  With `locks`, some accesses carry a PL
 * lock or unlock request.  Finishes after `limit` ops.
 */
class TickProgram : public ThreadProgram
{
  public:
    TickProgram(std::uint64_t seed, std::size_t limit,
                std::uint64_t period = 200, bool locks = false)
        : rng_(seed), limit_(limit), period_(period), locks_(locks)
    {}

    Op
    next(std::uint64_t now) override
    {
        if (ops_ >= limit_)
            return Op::done();
        ++ops_;
        const std::uint64_t r = rng_.below(8);
        if (r == 0)
            return Op::spinUntil((now / period_ + 1) * period_);
        // 80 lines over 4 of the 16 LLC sets, 20 to a set: private
        // hits, LLC hits and LLC evictions.
        const sim::Addr line =
            rng_.below(4) * 64 + rng_.below(20) * 16 * 1024;
        const sim::MemRef ref{line, line, threadId(), r == 1};
        if (locks_ && (r == 2 || r == 3))
            return Op::accessLock(ref, r == 2 ? sim::LockReq::Lock
                                              : sim::LockReq::Unlock);
        return Op::access(ref);
    }

  private:
    sim::Xoshiro256 rng_;
    std::size_t limit_;
    std::uint64_t period_;
    bool locks_;
    std::size_t ops_ = 0;
};

/**
 * Run one thread per (core, limit) under LowestClock, bare
 * (@p per_op false: run-ahead) or each core under a one-thread nested
 * reference::PerOpLowestClock (@p per_op true: one op per step).
 */
RunEnd
runCores(bool per_op, const std::vector<std::size_t> &limits,
         unsigned primary, std::uint64_t max_cycles,
         std::uint64_t period = 200)
{
    const auto cores = static_cast<std::uint32_t>(limits.size());
    RunEnd out(smallTopology(cores));
    LowestClock policy;
    if (per_op) {
        for (std::uint32_t c = 0; c < cores; ++c)
            policy.nest(c,
                        std::make_unique<reference::PerOpLowestClock>());
    }
    const EngineConfig ec{.max_cycles = max_cycles, .seed = 7};
    Engine engine(out.multiCore(), timing::Uarch::intelXeonE52690(), policy,
                  ec);

    std::vector<ThreadSpec> specs;
    for (std::uint32_t c = 0; c < cores; ++c)
        specs.push_back(ThreadSpec{
            &out.own(std::make_unique<TickProgram>(100 + c, limits[c],
                                                   period)),
            c});
    engine.run(specs, primary);
    out.record(engine);
    return out;
}

} // namespace

TEST(LowestClockRunAhead, TiedClocksAcrossChildren)
{
    // Four cores spinning to the same period boundaries: the run-ahead
    // must hand a tie to the lower child, as a re-scan would.
    for (std::uint64_t period : {50u, 200u, 1000u}) {
        const std::vector<std::size_t> limits{20'000, 20'000, 20'000,
                                              20'000};
        const std::string what = "period " + std::to_string(period);
        const RunEnd ahead = runCores(false, limits, 3, ~0ULL, period);
        const RunEnd per_op = runCores(true, limits, 3, ~0ULL, period);
        compare::expectSameRun(ahead, per_op, what);
        EXPECT_TRUE(ahead.threads[3].done) << what;
    }
}

TEST(LowestClockRunAhead, PrimaryFinishesInsideRun)
{
    // The primary stops, mostly in the middle of a run-ahead; no thread
    // may step past that point.
    for (unsigned primary : {0u, 2u}) {
        std::vector<std::size_t> limits{50'000, 50'000, 50'000};
        limits[primary] = 777;
        const std::string what = "primary " + std::to_string(primary);
        const RunEnd ahead = runCores(false, limits, primary, ~0ULL);
        const RunEnd per_op = runCores(true, limits, primary, ~0ULL);
        compare::expectSameRun(ahead, per_op, what);
        EXPECT_TRUE(ahead.threads[primary].done) << what;
    }
}

TEST(LowestClockRunAhead, MaxCyclesCrossedInsideRun)
{
    // max_cycles ends the run at the op that crosses it.  While a
    // runner-up exists its clock bounds the run below the engine's
    // high-water clock; a child left running alone (the others done)
    // has only max_cycles to stop it.
    const std::vector<std::vector<std::size_t>> cases{
        {1'000'000, 1'000'000, 1'000'000}, {5, 1'000'000, 20}};
    for (const auto &limits : cases) {
        for (std::uint64_t max_cycles : {10'000u, 123'457u}) {
            const std::string what =
                "max_cycles " + std::to_string(max_cycles) + " limit0 " +
                std::to_string(limits[0]);
            const RunEnd ahead = runCores(false, limits, 1, max_cycles);
            const RunEnd per_op = runCores(true, limits, 1, max_cycles);
            compare::expectSameRun(ahead, per_op, what);
            EXPECT_GE(ahead.tsc, max_cycles) << what;
            EXPECT_FALSE(ahead.threads[1].done) << what;
        }
    }
}

TEST(LowestClockRunAhead, ChildAlreadyDone)
{
    // A child that finished early drops out of the scan; the others
    // keep running ahead of each other around it.
    const std::vector<std::size_t> limits{300, 30'000, 5, 30'000};
    const RunEnd ahead = runCores(false, limits, 3, ~0ULL);
    const RunEnd per_op = runCores(true, limits, 3, ~0ULL);
    compare::expectSameRun(ahead, per_op, "done children");
    EXPECT_TRUE(ahead.threads[0].done);
    EXPECT_TRUE(ahead.threads[2].done);
}

// ------------------------------------ LowestClock run-ahead on one core

namespace {

/** The L1 chain a timed load walks (Op::measure views it). */
const std::vector<sim::HitLevel> kChain(7, sim::HitLevel::L1);

/**
 * A receiver-shaped thread: every `period` cycles it times `burst`
 * loads that share the TickPrograms' L1 sets, then parks in SpinUntil
 * until the next multiple of `period`, while its siblings run ahead
 * beneath it.  Finishes after `samples` bursts.
 */
class ParkedProgram : public ThreadProgram
{
  public:
    ParkedProgram(std::size_t samples, std::uint64_t period,
                  std::uint32_t burst = 3)
        : samples_(samples), period_(period), burst_(burst)
    {}

    Op
    next(std::uint64_t now) override
    {
        if (in_burst_ == burst_) {
            in_burst_ = 0;
            ++bursts_;
            return Op::spinUntil((now / period_ + 1) * period_);
        }
        if (bursts_ >= samples_)
            return Op::done();
        const sim::Addr line = 0x40000 + in_burst_++ * 16 * 1024;
        return Op::measure(sim::MemRef::load(line, threadId()), kChain);
    }

  private:
    std::size_t samples_;
    std::uint64_t period_;
    std::uint32_t burst_;
    std::uint32_t in_burst_ = 0;
    std::size_t bursts_ = 0;
};

using Programs = std::vector<std::unique_ptr<ThreadProgram>>;

/**
 * Run the threads @p make builds, all on the one core of a small
 * CacheHierarchy: under LowestClock (@p per_op false: the production
 * hyper-threaded schedule, with run-ahead) or under a root
 * reference::PerOpLowestClock (@p per_op true).  @p pl sets the L1's
 * PL-cache mode.
 */
RunEnd
runOneCore(bool per_op, const std::function<Programs()> &make,
           unsigned primary, std::uint64_t max_cycles = ~0ULL,
           sim::PlMode pl = sim::PlMode::Disabled)
{
    const MultiCoreConfig small = smallTopology(1);
    sim::HierarchyConfig hc;
    hc.l1 = small.l1;
    hc.l2 = small.l2;
    hc.llc = small.llc;
    hc.l1_pl_mode = pl;
    RunEnd out(hc);
    LowestClock ahead;
    reference::PerOpLowestClock reference;
    ArbitrationPolicy &policy =
        per_op ? static_cast<ArbitrationPolicy &>(reference) : ahead;
    const EngineConfig ec{.max_cycles = max_cycles, .seed = 7};
    Engine engine(out.hierarchy(), timing::Uarch::intelXeonE52690(), policy,
                  ec);

    std::vector<ThreadSpec> specs;
    for (auto &p : make())
        specs.push_back(ThreadSpec{&out.own(std::move(p)), 0});
    engine.run(specs, primary);
    out.record(engine);
    return out;
}

/** runOneCore() both ways, compared. */
RunEnd
expectSameOneCore(const std::function<Programs()> &make, unsigned primary,
                  const std::string &what, std::uint64_t max_cycles = ~0ULL,
                  sim::PlMode pl = sim::PlMode::Disabled)
{
    RunEnd ahead = runOneCore(false, make, primary, max_cycles, pl);
    const RunEnd per_op = runOneCore(true, make, primary, max_cycles, pl);
    compare::expectSameRun(ahead, per_op, what);
    return ahead;
}

/** TickPrograms with the given limits (seeds 100 + i). */
Programs
ticks(const std::vector<std::size_t> &limits, std::uint64_t period = 200,
      bool locks = false)
{
    Programs out;
    for (std::size_t i = 0; i < limits.size(); ++i)
        out.push_back(std::make_unique<TickProgram>(100 + i, limits[i],
                                                    period, locks));
    return out;
}

/** Locked lines left in @p cache. */
std::uint32_t
lockedLines(const sim::Cache &cache)
{
    std::uint32_t n = 0;
    for (std::uint32_t s = 0; s < cache.storageSets(); ++s) {
        const auto set = cache.cacheSet(s);
        for (std::uint32_t w = 0; w < set.ways(); ++w)
            n += set.line(w).locked ? 1 : 0;
    }
    return n;
}

} // namespace

TEST(LowestClockRunAhead, OneCoreReceiverParkedInSpin)
{
    // The sender (and a second sibling) run ahead while the receiver
    // sleeps to its next sample; the receiver is the primary.
    for (std::size_t siblings : {1u, 2u}) {
        for (std::uint64_t period : {600u, 5'000u}) {
            const std::string what = std::to_string(siblings + 1) +
                                     " threads, period " +
                                     std::to_string(period);
            const auto make = [&] {
                Programs p = ticks(std::vector<std::size_t>(siblings,
                                                            1'000'000),
                                   997);
                p.insert(p.begin() + 1,
                         std::make_unique<ParkedProgram>(300, period));
                return p;
            };
            const RunEnd ahead = expectSameOneCore(make, 1, what);
            EXPECT_TRUE(ahead.threads[1].done) << what;
            EXPECT_EQ(ahead.threads[1].stats.measures, 900u) << what;
            EXPECT_GT(ahead.threads[1].stats.spins, 0u) << what;
        }
    }
}

TEST(LowestClockRunAhead, OneCoreTiedClocks)
{
    // Every thread spins to the same period boundaries, so a running
    // thread often lands on the clock of a parked lower-index sibling:
    // the run must hand the tie over, as a re-scan would.
    for (std::size_t threads : {2u, 3u}) {
        for (std::uint64_t period : {50u, 200u, 1000u}) {
            const std::string what = std::to_string(threads) +
                                     " threads, period " +
                                     std::to_string(period);
            const auto make = [&] {
                return ticks(std::vector<std::size_t>(threads, 20'000),
                             period);
            };
            const RunEnd ahead =
                expectSameOneCore(make, threads - 1, what);
            EXPECT_TRUE(ahead.threads[threads - 1].done) << what;
        }
    }
}

TEST(LowestClockRunAhead, OneCorePrimaryFinishesInsideRun)
{
    for (std::size_t threads : {2u, 3u}) {
        for (unsigned primary = 0; primary < threads; ++primary) {
            std::vector<std::size_t> limits(threads, 50'000);
            limits[primary] = 777;
            const std::string what = std::to_string(threads) +
                                     " threads, primary " +
                                     std::to_string(primary);
            const RunEnd ahead = expectSameOneCore(
                [&] { return ticks(limits); }, primary, what);
            EXPECT_TRUE(ahead.threads[primary].done) << what;
        }
    }
}

TEST(LowestClockRunAhead, OneCoreMaxCyclesCrossedInsideRun)
{
    // With siblings live, the runner-up bounds a run below the
    // high-water clock; a thread left alone (its siblings done) has
    // only max_cycles to stop it.
    const std::vector<std::vector<std::size_t>> cases{
        {1'000'000, 1'000'000},
        {20, 1'000'000},
        {1'000'000, 1'000'000, 1'000'000},
        {5, 1'000'000, 20}};
    for (const auto &limits : cases) {
        for (std::uint64_t max_cycles : {10'000u, 123'457u}) {
            const std::string what =
                std::to_string(limits.size()) + " threads, max_cycles " +
                std::to_string(max_cycles) + " limit0 " +
                std::to_string(limits[0]);
            const RunEnd ahead = expectSameOneCore(
                [&] { return ticks(limits); }, 1, what, max_cycles);
            EXPECT_GE(ahead.tsc, max_cycles) << what;
            EXPECT_FALSE(ahead.threads[1].done) << what;
        }
    }
}

TEST(LowestClockRunAhead, OneCoreLockRequests)
{
    // PL lock and unlock requests ride on the ops the run-ahead issues
    // (Engine::access passes them to the CacheHierarchy), under both
    // PL-cache modes.
    for (sim::PlMode pl : {sim::PlMode::Original, sim::PlMode::FixedLruLock}) {
        for (std::size_t threads : {2u, 3u}) {
            const std::string what =
                std::to_string(threads) + " threads, PL mode " +
                std::to_string(static_cast<int>(pl));
            const RunEnd ahead = expectSameOneCore(
                [&] {
                    return ticks(std::vector<std::size_t>(threads, 20'000),
                                 200, /*locks=*/true);
                },
                0, what, ~0ULL, pl);
            EXPECT_TRUE(ahead.threads[0].done) << what;
            EXPECT_GT(lockedLines(ahead.hierarchy().l1()), 0u) << what;
        }
    }
}

// -------------------------------------------------- multi-core L1 exit

namespace {

const sim::ReplPolicyKind kPolicies[] = {
    sim::ReplPolicyKind::TrueLru, sim::ReplPolicyKind::TreePlru,
    sim::ReplPolicyKind::BitPlru, sim::ReplPolicyKind::Fifo,
    sim::ReplPolicyKind::Random,  sim::ReplPolicyKind::Srrip};

/** The general-path twin of a plain level: DAWG with one domain. */
sim::CacheConfig
generalPath(sim::CacheConfig c)
{
    c.secure = sim::SecureMode::Dawg;
    c.secure_domains = 1;
    return c;
}

} // namespace

TEST(MultiCoreL1HitExit, MatchesGeneralPathLevel)
{
    for (sim::ReplPolicyKind policy : kPolicies) {
        for (sim::WriteHitPolicy l1_write :
             {sim::WriteHitPolicy::WriteBack,
              sim::WriteHitPolicy::WriteThrough}) {
            for (bool sharp : {false, true}) {
                const std::string what =
                    std::string(sim::replPolicyName(policy)) +
                    (l1_write == sim::WriteHitPolicy::WriteBack ? " WB"
                                                                : " WT") +
                    (sharp ? " SHARP LLC" : " plain LLC");
                MultiCoreConfig plain = smallTopology(3);
                plain.l1.policy = policy;
                plain.l2.policy = policy;
                plain.llc.policy = policy;
                plain.l1.write_hit = l1_write;
                if (sharp)
                    plain.llc.secure = sim::SecureMode::Sharp;
                plain.seed = 3;
                // Every plain level of the reference takes the general
                // path: the L1 (MultiCoreHierarchy's exit) and the plain
                // L2 and LLC (Cache::access's).
                MultiCoreConfig general = plain;
                general.l1 = generalPath(plain.l1);
                general.l2 = generalPath(plain.l2);
                if (!sharp)
                    general.llc = generalPath(plain.llc);

                MultiCoreHierarchy fast(plain);
                MultiCoreHierarchy ref(general);
                sim::Xoshiro256 rng(11);
                for (int i = 0; i < 20'000; ++i) {
                    const auto core =
                        static_cast<std::uint32_t>(rng.below(3));
                    // A hot line per core (L1 hits), else one of 512
                    // lines, twice the LLC's 256 (evictions).
                    const sim::Addr line = rng.chance(0.6)
                                               ? 0x100000 + core * 64
                                               : rng.below(512) * 64;
                    const sim::MemRef ref_in{line, line, core,
                                             rng.chance(0.4)};
                    const auto a = fast.access(core, ref_in);
                    const auto b = ref.access(core, ref_in);
                    ASSERT_EQ(a.level, b.level) << what << " op " << i;
                    ASSERT_EQ(a.llc_filled, b.llc_filled) << what;
                    ASSERT_EQ(a.back_invalidated, b.back_invalidated)
                        << what;
                    ASSERT_EQ(a.writebacks, b.writebacks) << what;
                }
                compare::expectSameMultiCore(fast, ref, what, {0, 1, 2});
                // The stream exercised what it is meant to.
                EXPECT_GT(fast.l1(0).counters().total().hits, 1000u)
                    << what;
                EXPECT_GT(fast.backInvalidations(), 0u) << what;
                EXPECT_GT(fast.dirtyWritebacks(), 0u) << what;
            }
        }
    }
}

TEST(MultiCoreL1HitExit, WriteThroughStoreHitForwards)
{
    // The L1 exit's one step beyond the set: a store hit in a
    // write-through L1 is forwarded to the L2, one write-back
    // transaction, and the L1 copy stays clean.
    MultiCoreConfig mc = smallTopology(2);
    mc.l1.write_hit = sim::WriteHitPolicy::WriteThrough;
    MultiCoreHierarchy h(mc);
    const sim::MemRef load = sim::MemRef::load(0x4000, 0);
    sim::MemRef store = load;
    store.is_write = true;

    ASSERT_EQ(h.access(0, load).level, sim::HitLevel::Memory);
    const auto hit = h.access(0, store);
    EXPECT_EQ(hit.level, sim::HitLevel::L1);
    EXPECT_EQ(hit.writebacks, 1u);
    EXPECT_FALSE(h.l1(0).flush(load).dirty);
    EXPECT_TRUE(h.l2(0).flush(load).dirty);
}
