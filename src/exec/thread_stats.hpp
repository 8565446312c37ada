/**
 * @file
 * The one per-thread telemetry record of the execution layer.
 *
 * Every scheduler used to be one ad-hoc tally away from growing its own
 * stats struct; exec::ThreadStats is the single shared shape.  The
 * engine maintains one per simulated thread (program ops it executed and
 * the cycles it charged); anything cache-level (hits, misses, evictions)
 * stays in sim::PerfCounters, keyed by sim::ThreadId as before.
 */

#ifndef LRULEAK_EXEC_THREAD_STATS_HPP
#define LRULEAK_EXEC_THREAD_STATS_HPP

#include <cstdint>

namespace lruleak::exec {

/** Per-thread execution telemetry, maintained by exec::Engine. */
struct ThreadStats
{
    std::uint64_t accesses = 0;    //!< Access ops executed
    std::uint64_t measures = 0;    //!< Measure ops executed
    std::uint64_t flushes = 0;     //!< Flush ops executed
    std::uint64_t spins = 0;       //!< SpinUntil ops honoured
    std::uint64_t busy_cycles = 0; //!< cycles charged for executed ops
                                   //!< (spin time not included)

    bool operator==(const ThreadStats &) const = default;

    /** Ops that reached the memory system. */
    std::uint64_t
    memoryOps() const
    {
        return accesses + measures + flushes;
    }

    /** Every op the engine consumed from the program. */
    std::uint64_t
    totalOps() const
    {
        return memoryOps() + spins;
    }
};

} // namespace lruleak::exec

#endif // LRULEAK_EXEC_THREAD_STATS_HPP
