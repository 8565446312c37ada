/**
 * @file
 * The one end-of-run comparison of the differential tests: two runs
 * driven down different code paths (an engine shortcut and per-op
 * stepping, a fast cache path and the general one) must end in the
 * same state.
 *
 *  - expectSameCache(), expectSameHierarchy() and expectSameMultiCore()
 *    compare two topologies: every storage set, the total counters and
 *    those of the given thread ids, the SHARP events and, across cores,
 *    the back-invalidation and write-back counts.
 *  - RunEnd owns one run's topology and programs and records its end:
 *    the end TSC, each engine thread's clock, spin_until, done flag and
 *    ThreadStats, and the engine RNG.  expectSameRun() compares two
 *    records: all of that, and every level's counters for every thread
 *    id that touched it (the engine's threads and the ids a run names,
 *    such as a TimeSlice's kernel and background ids), checked complete
 *    against the level's totals.
 */

#ifndef LRULEAK_TESTS_SAME_TOPOLOGY_HPP
#define LRULEAK_TESTS_SAME_TOPOLOGY_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "sim/cache.hpp"
#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "sim/random.hpp"

namespace lruleak::compare {

using Ids = std::vector<sim::ThreadId>;

/**
 * Every set, the total counters and those of each of @p ids, and the
 * SHARP events of @p a and @p b are equal.  With @p ids, they are also
 * every thread id that touched the level: their accesses and
 * write-backs sum to the level's totals.
 */
inline void
expectSameCache(const sim::Cache &a, const sim::Cache &b,
                const std::string &what, const Ids &ids = {})
{
    ASSERT_EQ(a.storageSets(), b.storageSets()) << what;
    for (std::uint32_t s = 0; s < a.storageSets(); ++s)
        ASSERT_TRUE(a.cacheSet(s) == b.cacheSet(s)) << what << " set " << s;
    const auto same = [&](const sim::LevelStats &x, const sim::LevelStats &y,
                          const std::string &who) {
        EXPECT_EQ(x.accesses, y.accesses) << what << who;
        EXPECT_EQ(x.hits, y.hits) << what << who;
        EXPECT_EQ(x.misses, y.misses) << what << who;
        EXPECT_EQ(x.writebacks, y.writebacks) << what << who;
    };
    same(a.counters().total(), b.counters().total(), " total");
    sim::LevelStats listed;
    for (sim::ThreadId t : ids) {
        listed += a.counters().forThread(t);
        same(a.counters().forThread(t), b.counters().forThread(t),
             " thread " + std::to_string(t));
    }
    // With the totals and every listed id equal, this covers b too.
    if (!ids.empty()) {
        EXPECT_EQ(listed.accesses, a.counters().total().accesses)
            << what << ": an unlisted thread id accessed the level";
        EXPECT_EQ(listed.writebacks, a.counters().total().writebacks)
            << what << ": an unlisted thread id wrote back";
    }
    EXPECT_EQ(a.sharpAlarmsTotal(), b.sharpAlarmsTotal()) << what;
    EXPECT_EQ(a.sharpForcedTotal(), b.sharpForcedTotal()) << what;
    EXPECT_EQ(a.sharpDeniedTotal(), b.sharpDeniedTotal()) << what;
}

/** expectSameCache() on the three levels.  Configs are not compared. */
inline void
expectSameHierarchy(const sim::CacheHierarchy &a,
                    const sim::CacheHierarchy &b, const std::string &what,
                    const Ids &ids = {})
{
    expectSameCache(a.l1(), b.l1(), what + " L1", ids);
    expectSameCache(a.l2(), b.l2(), what + " L2", ids);
    expectSameCache(a.llc(), b.llc(), what + " LLC", ids);
}

/** expectSameCache() on every level of every core, and equal
 *  back-invalidation and write-back counts.  Configs are not compared:
 *  a twin may take another path by design. */
inline void
expectSameMultiCore(const sim::MultiCoreHierarchy &a,
                    const sim::MultiCoreHierarchy &b, const std::string &what,
                    const Ids &ids = {})
{
    ASSERT_EQ(a.cores(), b.cores()) << what;
    for (std::uint32_t c = 0; c < a.cores(); ++c) {
        expectSameCache(a.l1(c), b.l1(c), what + " L1." + std::to_string(c),
                        ids);
        expectSameCache(a.l2(c), b.l2(c), what + " L2." + std::to_string(c),
                        ids);
    }
    expectSameCache(a.llc(), b.llc(), what + " LLC", ids);
    EXPECT_EQ(a.backInvalidations(), b.backInvalidations()) << what;
    EXPECT_EQ(a.dirtyWritebacks(), b.dirtyWritebacks()) << what;
}

/** One side of a differential: the topology and programs of one run,
 *  and what the run left behind once record()ed. */
class RunEnd
{
  public:
    /** A run on a CacheHierarchy built from @p config. */
    explicit RunEnd(const sim::HierarchyConfig &config = {})
        : single_(std::make_unique<sim::CacheHierarchy>(config))
    {}

    /** A run on a MultiCoreHierarchy built from @p config. */
    explicit RunEnd(const sim::MultiCoreConfig &config)
        : multi_(std::make_unique<sim::MultiCoreHierarchy>(config))
    {}

    /** The run drove a MultiCoreHierarchy, not a CacheHierarchy. */
    bool isMultiCore() const { return multi_ != nullptr; }
    sim::CacheHierarchy &hierarchy() { return *single_; }
    const sim::CacheHierarchy &hierarchy() const { return *single_; }
    sim::MultiCoreHierarchy &multiCore() { return *multi_; }
    const sim::MultiCoreHierarchy &multiCore() const { return *multi_; }

    /** Keep @p program alive as long as this record; returns it. */
    template <class P>
    P &
    own(std::unique_ptr<P> program)
    {
        P &p = *program;
        programs_.push_back(std::move(program));
        return p;
    }

    /** The @p i-th program own()ed, or null if it is not a @p P. */
    template <class P>
    const P *
    program(std::size_t i) const
    {
        return dynamic_cast<const P *>(programs_.at(i).get());
    }

    std::size_t programCount() const { return programs_.size(); }

    /**
     * Record the end of @p engine's run: its TSC, every thread and its
     * RNG.  The thread ids compared are the engine's threads and
     * @p extra_ids, the other ids the run touched the topology with.
     */
    void
    record(exec::Engine &engine, const Ids &extra_ids = {})
    {
        tsc = engine.now();
        for (unsigned i = 0; i < engine.threadCount(); ++i) {
            threads.push_back(engine.thread(i));
            ids.push_back(i);
        }
        ids.insert(ids.end(), extra_ids.begin(), extra_ids.end());
        rng = engine.rng();
    }

    // A run with no engine sets tsc and ids itself.
    std::uint64_t tsc = 0;
    std::vector<exec::Engine::Thread> threads;
    std::optional<sim::Xoshiro256> rng;
    Ids ids; //!< the thread ids whose counters are compared

  private:
    std::unique_ptr<sim::CacheHierarchy> single_;
    std::unique_ptr<sim::MultiCoreHierarchy> multi_;
    std::vector<std::unique_ptr<exec::ThreadProgram>> programs_;
};

/**
 * Same end TSC and thread ids, and the same topology
 * (expectSameHierarchy() or expectSameMultiCore()) for those ids.  The
 * comparison of a run with no engine.
 */
inline void
expectSameEnd(const RunEnd &a, const RunEnd &b, const std::string &what = "")
{
    ASSERT_FALSE(a.ids.empty()) << what << ": a run was not recorded";
    ASSERT_EQ(a.ids, b.ids) << what;
    EXPECT_EQ(a.tsc, b.tsc) << what << " end TSC";
    ASSERT_EQ(a.isMultiCore(), b.isMultiCore()) << what;
    if (a.isMultiCore())
        expectSameMultiCore(a.multiCore(), b.multiCore(), what, a.ids);
    else
        expectSameHierarchy(a.hierarchy(), b.hierarchy(), what, a.ids);
}

/** expectSameEnd(), and every engine thread's core, clock, spin_until,
 *  done flag and ThreadStats, and the engine RNG (state and next draw)
 *  are equal. */
inline void
expectSameRun(const RunEnd &a, const RunEnd &b, const std::string &what = "")
{
    expectSameEnd(a, b, what);
    ASSERT_TRUE(a.rng && b.rng) << what << ": a run has no engine";
    EXPECT_TRUE(*a.rng == *b.rng) << what << " RNG state";
    sim::Xoshiro256 ra = *a.rng, rb = *b.rng;
    EXPECT_EQ(ra(), rb()) << what << " next draw";
    ASSERT_EQ(a.threads.size(), b.threads.size()) << what;
    for (std::size_t i = 0; i < a.threads.size(); ++i) {
        const exec::Engine::Thread &x = a.threads[i], &y = b.threads[i];
        EXPECT_EQ(x.core, y.core) << what << " thread " << i;
        EXPECT_EQ(x.clock, y.clock) << what << " thread " << i;
        EXPECT_EQ(x.spin_until, y.spin_until) << what << " thread " << i;
        EXPECT_EQ(x.done, y.done) << what << " thread " << i;
        EXPECT_TRUE(x.stats == y.stats) << what << " thread " << i;
    }
}

} // namespace lruleak::compare

#endif // LRULEAK_TESTS_SAME_TOPOLOGY_HPP
