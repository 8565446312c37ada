/**
 * @file
 * Replaying a trace file through the execution engine.
 *
 * TraceProgram turns a workload::TraceFile into a ThreadProgram: each
 * record becomes one Access op (loads and stores, so the PR-6 write
 * path — dirty bits, write-backs, write-allocate policy — is exercised
 * exactly as the live generators exercise it).  The program can start
 * at any offset and either stop at the end of the trace or loop
 * forever, which is what noise cores need: N cores replaying one trace
 * at staggered offsets approximate N concurrent phases of the same
 * victim.
 *
 * replayTrace() is the engine-free fast path: it pumps the records
 * through CacheHierarchy::accessBatch in chunks, for benchmarks and
 * tests that want the cache-state effect of a trace without scheduling
 * overhead.
 */

#ifndef LRULEAK_EXEC_TRACE_PROGRAM_HPP
#define LRULEAK_EXEC_TRACE_PROGRAM_HPP

#include <cstdint>
#include <memory>

#include "exec/op.hpp"
#include "sim/hierarchy.hpp"
#include "workload/trace_file.hpp"

namespace lruleak::exec {

/** A ThreadProgram that replays a trace's records in order. */
class TraceProgram final : public ThreadProgram
{
  public:
    /**
     * @param trace the records to replay (shared: noise cores replay
     *        one loaded trace without copying it per core)
     * @param start_offset record index of the first access (modulo the
     *        trace length; staggers looping replicas)
     * @param loop wrap around at the end instead of yielding Done
     */
    TraceProgram(std::shared_ptr<const workload::TraceFile> trace,
                 std::size_t start_offset = 0, bool loop = false)
        : trace_(std::move(trace)), loop_(loop)
    {
        const std::size_t n = trace_ ? trace_->size() : 0;
        position_ = n > 0 ? start_offset % n : 0;
    }

    Op
    next(std::uint64_t) override
    {
        if (!trace_ || trace_->empty())
            return Op::done();
        if (position_ >= trace_->size()) {
            if (!loop_)
                return Op::done();
            position_ = 0;
        }
        const workload::TraceRecord &record =
            trace_->records[position_++];
        ++replayed_;
        return Op::access(record.ref(threadId()));
    }

    /** Total accesses issued (past the end counts loops). */
    std::uint64_t replayed() const { return replayed_; }

  private:
    std::shared_ptr<const workload::TraceFile> trace_;
    std::size_t position_ = 0;
    std::uint64_t replayed_ = 0;
    bool loop_;
};

/** Cache-state outcome of an engine-free replay. */
struct TraceReplayStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;    //!< served by any cache level
    std::uint64_t misses = 0;  //!< served by memory
};

/**
 * Replay a whole trace through @p hierarchy (as thread 0) using chunked
 * accessBatch calls (no engine, no clocks).  Returns hit/miss totals.
 */
TraceReplayStats replayTrace(sim::CacheHierarchy &hierarchy,
                             const workload::TraceFile &trace,
                             std::size_t chunk = 4096);

} // namespace lruleak::exec

#endif // LRULEAK_EXEC_TRACE_PROGRAM_HPP
