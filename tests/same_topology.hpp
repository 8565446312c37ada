/**
 * @file
 * Whole-topology equality for differential tests: two caches, or two
 * multi-core hierarchies, driven down different code paths must end in
 * the same state — every storage set, the perf counters, the SHARP
 * events and the hierarchy's back-invalidation and write-back counts.
 */

#ifndef LRULEAK_TESTS_SAME_TOPOLOGY_HPP
#define LRULEAK_TESTS_SAME_TOPOLOGY_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/cache.hpp"
#include "sim/multicore_hierarchy.hpp"

namespace lruleak::compare {

/** Every set, the total counters and those of threads [0, @p threads),
 *  and the SHARP events of @p a and @p b are equal. */
inline void
expectSameCache(const sim::Cache &a, const sim::Cache &b,
                const std::string &what, std::uint32_t threads = 0)
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
    for (sim::ThreadId t = 0; t < threads; ++t)
        same(a.counters().forThread(t), b.counters().forThread(t),
             " thread " + std::to_string(t));
    EXPECT_EQ(a.sharpAlarmsTotal(), b.sharpAlarmsTotal()) << what;
    EXPECT_EQ(a.sharpForcedTotal(), b.sharpForcedTotal()) << what;
    EXPECT_EQ(a.sharpDeniedTotal(), b.sharpDeniedTotal()) << what;
}

/** expectSameCache() on every level of every core, and equal
 *  back-invalidation and write-back counts.  Configs are not compared:
 *  a twin may take another path by design. */
inline void
expectSameMultiCore(const sim::MultiCoreHierarchy &a,
                    const sim::MultiCoreHierarchy &b, const std::string &what,
                    std::uint32_t threads = 0)
{
    ASSERT_EQ(a.cores(), b.cores()) << what;
    for (std::uint32_t c = 0; c < a.cores(); ++c) {
        expectSameCache(a.l1(c), b.l1(c), what + " L1." + std::to_string(c),
                        threads);
        expectSameCache(a.l2(c), b.l2(c), what + " L2." + std::to_string(c),
                        threads);
    }
    expectSameCache(a.llc(), b.llc(), what + " LLC", threads);
    EXPECT_EQ(a.backInvalidations(), b.backInvalidations()) << what;
    EXPECT_EQ(a.dirtyWritebacks(), b.dirtyWritebacks()) << what;
}

} // namespace lruleak::compare

#endif // LRULEAK_TESTS_SAME_TOPOLOGY_HPP
