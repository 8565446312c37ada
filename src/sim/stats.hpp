/**
 * @file
 * Access/hit/miss counters, overall and per hardware thread.
 *
 * These mirror what the paper reads out of `perf` hardware counters for
 * Tables VI and VII (L1D / L2 / LLC miss rates of the sender process).
 */

#ifndef LRULEAK_SIM_STATS_HPP
#define LRULEAK_SIM_STATS_HPP

#include <cstdint>
#include <vector>

#include "sim/address.hpp"

namespace lruleak::sim {

/** Hit/miss tallies for one cache level (one owner). */
struct LevelStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0; //!< dirty lines drained from this level
                                  //!< (eviction, flush or write-through)

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                        : 0.0;
    }

    void
    record(bool hit)
    {
        ++accesses;
        if (hit)
            ++hits;
        else
            ++misses;
    }

    LevelStats &
    operator+=(const LevelStats &other)
    {
        accesses += other.accesses;
        hits += other.hits;
        misses += other.misses;
        writebacks += other.writebacks;
        return *this;
    }
};

/**
 * Per-thread counters for one cache level, emulating per-process
 * performance counters.  Thread id 0 is conventionally the sender/victim
 * and 1 the receiver/attacker in the channel experiments.
 */
class PerfCounters
{
  public:
    void
    record(ThreadId thread, bool hit)
    {
        total_.record(hit);
        slot(thread).record(hit);
    }

    /** Bulk tally of one thread's accesses with one slot lookup (the
     *  engine's steady fold credits its folded L1 hits through it). */
    void
    recordMany(ThreadId thread, std::uint64_t hits, std::uint64_t accesses)
    {
        total_.accesses += accesses;
        total_.hits += hits;
        total_.misses += accesses - hits;
        LevelStats &s = slot(thread);
        s.accesses += accesses;
        s.hits += hits;
        s.misses += accesses - hits;
    }

    /** One dirty line drained (evicted, flushed or written through). */
    void
    recordWriteback(ThreadId thread)
    {
        ++total_.writebacks;
        ++slot(thread).writebacks;
    }

    const LevelStats &total() const { return total_; }

    /** Stats for one thread (zero-initialised if it never accessed). */
    LevelStats
    forThread(ThreadId thread) const
    {
        for (const Entry &e : per_thread_)
            if (e.thread == thread)
                return e.stats;
        return LevelStats{};
    }

    void
    reset()
    {
        total_ = LevelStats{};
        per_thread_.clear();
        last_ = 0;
    }

  private:
    struct Entry
    {
        ThreadId thread = 0;
        LevelStats stats;
    };

    /**
     * A handful of distinct thread ids ever touch one cache (parties,
     * spies, kernel/background/noise ids), and accesses arrive in long
     * same-thread runs, so a memoized linear scan over a flat vector
     * beats the tree map this used to be — record() sat on the channel
     * hot path.
     */
    LevelStats &
    slot(ThreadId thread)
    {
        if (last_ < per_thread_.size() &&
            per_thread_[last_].thread == thread)
            return per_thread_[last_].stats;
        for (std::size_t i = 0; i < per_thread_.size(); ++i)
            if (per_thread_[i].thread == thread) {
                last_ = i;
                return per_thread_[i].stats;
            }
        last_ = per_thread_.size();
        per_thread_.push_back(Entry{thread, LevelStats{}});
        return per_thread_.back().stats;
    }

    LevelStats total_;
    std::vector<Entry> per_thread_;
    std::size_t last_ = 0;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_STATS_HPP
