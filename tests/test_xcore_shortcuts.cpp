/**
 * @file
 * The two exact shortcuts of a cross-core step, each against the path
 * it short-cuts:
 *
 *  - LowestClockRunAhead: a bare thread under LowestClock keeps stepping
 *    while its clock stays below the runner-up's.  The reference runs
 *    the same threads each under a one-thread nested RoundRobinSmt,
 *    which LowestClock steps one op at a time.
 *  - MultiCoreL1HitExit: a plain L1 serves a hit in
 *    MultiCoreHierarchy::access with one probe (and a plain level does
 *    the same inside Cache::access).  The reference runs the same stream
 *    through a DAWG level with one domain, which partitions nothing and
 *    takes the general set path.
 *
 * Both compare everything the shortcut could disturb: every set of
 * every level, the perf counters, the write-back counts, and for the
 * engine the thread clocks, ThreadStats and the RNG state.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "same_topology.hpp"
#include "sim/access_port.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "sim/random.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::exec;
using sim::MultiCoreConfig;
using sim::MultiCoreHierarchy;
using compare::expectSameMultiCore;

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
 * `period`: the aligned spins land threads of different cores on the
 * same clock, so ties between children are common.  Finishes after
 * `limit` ops.
 */
class TickProgram : public ThreadProgram
{
  public:
    TickProgram(std::uint64_t seed, std::size_t limit,
                std::uint64_t period = 200)
        : rng_(seed), limit_(limit), period_(period)
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
        return Op::access(sim::MemRef{line, line, threadId(), r == 1});
    }

  private:
    sim::Xoshiro256 rng_;
    std::size_t limit_;
    std::uint64_t period_;
    std::size_t ops_ = 0;
};

/** What a run leaves behind. */
struct RunState
{
    std::vector<std::uint64_t> clocks;
    std::vector<ThreadStats> stats;
    std::vector<bool> done;
    sim::Xoshiro256 rng{0};
    std::uint64_t now = 0;
    std::unique_ptr<MultiCoreHierarchy> topology;
};

/**
 * Run one thread per (core, limit) under LowestClock, bare
 * (@p per_op false: run-ahead) or each core under a one-thread nested
 * RoundRobinSmt (@p per_op true: one op per step).
 */
RunState
runCores(bool per_op, const std::vector<std::size_t> &limits,
         unsigned primary, std::uint64_t max_cycles,
         std::uint64_t period = 200)
{
    const auto cores = static_cast<std::uint32_t>(limits.size());
    RunState out;
    out.topology =
        std::make_unique<MultiCoreHierarchy>(smallTopology(cores));
    sim::MultiCorePort port(*out.topology);
    LowestClock policy;
    if (per_op) {
        for (std::uint32_t c = 0; c < cores; ++c)
            policy.nest(c, std::make_unique<RoundRobinSmt>());
    }
    EngineConfig ec;
    ec.max_cycles = max_cycles;
    ec.seed = 7;
    Engine engine(port, timing::Uarch::intelXeonE52690(), policy, ec);

    std::vector<std::unique_ptr<TickProgram>> programs;
    std::vector<ThreadSpec> specs;
    for (std::uint32_t c = 0; c < cores; ++c) {
        programs.push_back(
            std::make_unique<TickProgram>(100 + c, limits[c], period));
        specs.push_back(ThreadSpec{programs.back().get(), c});
    }
    out.now = engine.run(specs, primary);
    for (unsigned i = 0; i < cores; ++i) {
        out.clocks.push_back(engine.thread(i).clock);
        out.stats.push_back(engine.thread(i).stats);
        out.done.push_back(engine.thread(i).done);
    }
    out.rng = engine.rng();
    return out;
}

void
expectSameRun(const RunState &ahead, const RunState &per_op,
              const std::string &what)
{
    EXPECT_EQ(ahead.now, per_op.now) << what;
    EXPECT_EQ(ahead.clocks, per_op.clocks) << what;
    EXPECT_EQ(ahead.done, per_op.done) << what;
    ASSERT_EQ(ahead.stats.size(), per_op.stats.size()) << what;
    for (std::size_t i = 0; i < ahead.stats.size(); ++i)
        EXPECT_TRUE(ahead.stats[i] == per_op.stats[i])
            << what << " thread " << i;
    EXPECT_TRUE(ahead.rng == per_op.rng) << what;
    expectSameMultiCore(*ahead.topology, *per_op.topology, what,
                        static_cast<std::uint32_t>(ahead.clocks.size()));
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
        const RunState ahead = runCores(false, limits, 3, ~0ULL, period);
        const RunState per_op = runCores(true, limits, 3, ~0ULL, period);
        expectSameRun(ahead, per_op, what);
        EXPECT_TRUE(ahead.done[3]) << what;
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
        const RunState ahead = runCores(false, limits, primary, ~0ULL);
        const RunState per_op = runCores(true, limits, primary, ~0ULL);
        expectSameRun(ahead, per_op, what);
        EXPECT_TRUE(ahead.done[primary]) << what;
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
            const RunState ahead = runCores(false, limits, 1, max_cycles);
            const RunState per_op = runCores(true, limits, 1, max_cycles);
            expectSameRun(ahead, per_op, what);
            EXPECT_GE(ahead.now, max_cycles) << what;
            EXPECT_FALSE(ahead.done[1]) << what;
        }
    }
}

TEST(LowestClockRunAhead, ChildAlreadyDone)
{
    // A child that finished early drops out of the scan; the others
    // keep running ahead of each other around it.
    const std::vector<std::size_t> limits{300, 30'000, 5, 30'000};
    const RunState ahead = runCores(false, limits, 3, ~0ULL);
    const RunState per_op = runCores(true, limits, 3, ~0ULL);
    expectSameRun(ahead, per_op, "done children");
    EXPECT_TRUE(ahead.done[0]);
    EXPECT_TRUE(ahead.done[2]);
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
                expectSameMultiCore(fast, ref, what, 3);
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
