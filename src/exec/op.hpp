/**
 * @file
 * The operation vocabulary of simulated threads.
 *
 * Sender and receiver are modelled as state machines that yield one
 * operation at a time; the scheduler executes the operation against the
 * shared cache hierarchy, charges its latency to the thread's clock and
 * reports the outcome back.  This makes the interleaving of the two
 * parties explicit, reproducible and schedulable under both sharing
 * models.
 */

#ifndef LRULEAK_EXEC_OP_HPP
#define LRULEAK_EXEC_OP_HPP

#include <cstdint>
#include <optional>
#include <span>

#include "sim/address.hpp"
#include "sim/cache_set.hpp"
#include "sim/hierarchy.hpp"

namespace lruleak::exec {

/** What a thread wants to do next. */
enum class OpKind
{
    Access,       //!< one load/store through the hierarchy
    Measure,      //!< timed load of @c ref using the pointer-chase readout
    Flush,        //!< clflush @c ref from all levels
    MeasureFlush, //!< timed clflush of @c ref: the readout depends on
                  //!< whether a dirty copy had to be written back
                  //!< (Flushgeist-style flush-latency decoding)
    SpinUntil,    //!< busy-wait until the TSC reaches @c until
    Done,         //!< thread finished
};

/** One operation yielded by a ThreadProgram. */
struct Op
{
    OpKind kind = OpKind::Done;
    sim::MemRef ref;                     //!< Access/Measure/Flush target
    sim::LockReq lock_req = sim::LockReq::None;
    std::uint64_t until = 0;             //!< SpinUntil deadline (TSC)

    /**
     * For Measure: the observed hit levels of the preceding chase-chain
     * accesses (the receiver issues those as ordinary Access ops and
     * collects their levels via onResult).  A view into program-owned
     * storage: the engine consumes the op before the program's next()
     * runs again, so the program may reuse one buffer across samples
     * instead of allocating a fresh vector per measurement.
     */
    std::span<const sim::HitLevel> chain_levels;

    /**
     * For Measure: write-back transactions the preceding chain accesses
     * triggered (collected from their OpResults).  Each one stalled the
     * timed walk by the uarch's write-back latency, so the engine adds
     * them to the readout — the `dirty-evict` channel's signal.
     */
    std::uint32_t chain_writebacks = 0;

    static Op
    access(const sim::MemRef &ref)
    {
        Op op;
        op.kind = OpKind::Access;
        op.ref = ref;
        return op;
    }

    static Op
    accessLock(const sim::MemRef &ref, sim::LockReq req)
    {
        Op op = access(ref);
        op.lock_req = req;
        return op;
    }

    static Op
    measure(const sim::MemRef &ref, std::span<const sim::HitLevel> chain,
            std::uint32_t chain_writebacks = 0)
    {
        Op op;
        op.kind = OpKind::Measure;
        op.ref = ref;
        op.chain_levels = chain;
        op.chain_writebacks = chain_writebacks;
        return op;
    }

    static Op
    flush(const sim::MemRef &ref)
    {
        Op op;
        op.kind = OpKind::Flush;
        op.ref = ref;
        return op;
    }

    static Op
    measureFlush(const sim::MemRef &ref)
    {
        Op op;
        op.kind = OpKind::MeasureFlush;
        op.ref = ref;
        return op;
    }

    static Op
    spinUntil(std::uint64_t tsc)
    {
        Op op;
        op.kind = OpKind::SpinUntil;
        op.until = tsc;
        return op;
    }

    static Op
    done()
    {
        return Op{};
    }
};

/** Outcome of an executed Access/Measure/Flush op. */
struct OpResult
{
    OpKind kind = OpKind::Access;
    sim::HitLevel level = sim::HitLevel::Memory; //!< where it was served
    std::uint32_t measured = 0;   //!< latency readout (Measure kinds only)
    std::uint32_t writebacks = 0; //!< write-back transactions triggered
                                  //!< (receivers fold these into the
                                  //!< next timed readout)
    std::uint64_t tsc = 0;        //!< completion time
};

/**
 * A steady iteration a program offers for folding (see TimeSlice): it
 * issues @c refs as Access ops in order, then spins until
 * min(end + gap, deadline), where end is when its last access
 * completed.  The program repeats it unchanged, except that an
 * iteration starting at or past the deadline first moves the deadline
 * on by whole @c period steps, for as long as each iteration ends
 * before its deadline and starts before @c limit.
 */
struct SteadyIteration
{
    std::span<const sim::MemRef> refs; //!< program-owned storage
    std::uint64_t gap = 0;
    std::uint64_t deadline = 0; //!< the current one, > the offer's now
    std::uint64_t period = 0;   //!< > 0
    std::uint64_t limit = 0;    //!< first start with a different iteration
};

/**
 * A simulated thread.  @c next is called whenever the thread is runnable;
 * @c onResult delivers the outcome of the op that just executed.
 */
class ThreadProgram
{
  public:
    virtual ~ThreadProgram() = default;

    /** Yield the next operation. @p now is the current TSC. */
    virtual Op next(std::uint64_t now) = 0;

    /** Outcome of the last Access/Measure/Flush. */
    virtual void onResult(const OpResult &result) { (void)result; }

    /**
     * The iteration next(@p now) would start, when it is a steady one;
     * nullopt (the default) otherwise.  Changes nothing.  Only asked
     * when offersSteady() is set.
     */
    virtual std::optional<SteadyIteration>
    steadyIteration(std::uint64_t now) const
    {
        (void)now;
        return std::nullopt;
    }

    /**
     * The engine ran @p iterations of the offered iteration without
     * calling next() or onResult(): every access hit L1, and the
     * deadline moved on to @p deadline.  Leave the program in the state
     * per-op stepping would have left.
     */
    virtual void
    foldSteady(std::uint64_t iterations, std::uint64_t deadline)
    {
        (void)iterations;
        (void)deadline;
    }

    /** Whether steadyIteration() can ever offer (fixed per program). */
    bool offersSteady() const { return offers_steady_; }

    /** The scheduler's thread id for this program's accesses. */
    sim::ThreadId threadId() const { return thread_id_; }
    void setThreadId(sim::ThreadId id) { thread_id_ = id; }

  protected:
    void setOffersSteady(bool offers) { offers_steady_ = offers; }

  private:
    sim::ThreadId thread_id_ = 0;
    bool offers_steady_ = false;
};

} // namespace lruleak::exec

#endif // LRULEAK_EXEC_OP_HPP
