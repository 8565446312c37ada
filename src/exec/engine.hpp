/**
 * @file
 * The execution engine: N thread programs, one memory system, one
 * pluggable arbitration policy.
 *
 * The paper's attack variants differ only in *how attacker and victim
 * interleave* — SMT hyperthreads sharing an L1, time-sliced sharing of
 * one context, and cross-core sharing of an inclusive LLC.  The engine
 * factors the part those settings share (program stepping, per-thread
 * clocks and telemetry, op costs and the steady-iteration fold,
 * deterministic seeding, batched kernel bursts, the inclusion audit)
 * out of the interleaving itself, which becomes a pluggable
 * ArbitrationPolicy that decides only when, and up to which bound,
 * ops run:
 *
 *   LowestClock   — always steps the thread (or nested core policy)
 *                   whose next event is earliest: the per-op SMT
 *                   interleave of one core's hardware contexts, and one
 *                   deterministic global timeline across cores;
 *   TimeSlice     — quantum rotation on one core with OS context-switch
 *                   effects: kernel noise bursts, timer ticks and
 *                   background-process slices.
 *
 * Policies nest: LowestClock can delegate one core's intra-core
 * schedule to a child policy — a TimeSlice child models an OS
 * time-slicing that core.  The threads of a core without a child step
 * on their own private clocks, so a hyperthread pair on one core of a
 * multi-core system is just two bare threads bound to that core.  That
 * composability is what opens the combined-scenario matrix
 * (`xcore_timesliced`, `smt_multicore_traces`) without a third
 * hand-rolled scheduler.
 *
 * The memory system is one of the paper's two sharing topologies: the
 * single-core CacheHierarchy (hyperthreaded or time-sliced sharing) or
 * the MultiCoreHierarchy (cross-core sharing behind an inclusive LLC).
 * The engine has one constructor for each and calls the hierarchy
 * directly.
 *
 * Determinism: one engine-owned Xoshiro256 stream drives op jitter,
 * measurement noise and kernel bursts; the stepping order is a pure
 * function of thread clocks.  A given (programs, hierarchy, policy,
 * seed) tuple replays bit-identically.
 */

#ifndef LRULEAK_EXEC_ENGINE_HPP
#define LRULEAK_EXEC_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "exec/op.hpp"
#include "exec/thread_stats.hpp"
#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "sim/random.hpp"
#include "timing/pointer_chase.hpp"
#include "timing/uarch.hpp"

namespace lruleak::exec {

/** Default inclusion-audit sampling period: debug builds sample, release
 *  builds skip (the walk costs a private-cache capacity scan).  Only
 *  the multi-core hierarchy has an inclusion invariant to audit. */
#ifdef NDEBUG
inline constexpr std::uint32_t kDefaultAuditEvery = 0;
#else
inline constexpr std::uint32_t kDefaultAuditEvery = 1024;
#endif

/** Engine-level knobs shared by every arbitration policy. */
struct EngineConfig
{
    std::uint64_t max_cycles = 2'000'000'000ULL; //!< safety stop
    std::uint32_t op_overhead = 10; //!< non-memory work per op (address
                                    //!< arithmetic, loop control)
    std::uint32_t jitter = 4;       //!< uniform extra cycles per op,
                                    //!< models pipeline/port contention
    std::uint64_t seed = 42;
    /**
     * Run the multi-core hierarchy's inclusion audit every N executed
     * operations; 0 disables it (and a single-core engine has nothing to
     * audit).  A violation throws std::logic_error naming the line.
     */
    std::uint32_t audit_every = kDefaultAuditEvery;
};

/** One thread program and the core its accesses are issued from. */
struct ThreadSpec
{
    ThreadProgram *program = nullptr;
    std::uint32_t core = 0;
};

class Engine;

/**
 * How far a policy may run before its parent picks again: the first
 * event the parent does not yet give it.  An event that starts before
 * `time`, or at `time` with `tie` set, is inside.  The parent works it
 * out (LowestClock: the runner-up's next event, the tie going to the
 * lower child index); Engine::run passes the default, open horizon.
 */
struct Horizon
{
    std::uint64_t time = ~std::uint64_t{0};
    bool tie = false;

    /** The first time the horizon does not admit. */
    std::uint64_t
    end() const
    {
        return time + (tie && time != ~std::uint64_t{0});
    }
};

/**
 * Decides which thread runs next and what the passage of time costs.
 * A policy is handed the subset of engine threads it schedules (the
 * whole set for a top-level policy, one core's group when nested under
 * LowestClock) and advances them through the engine's shared stepping
 * primitives.
 */
class ArbitrationPolicy
{
  public:
    virtual ~ArbitrationPolicy() = default;

    /** Bind to a run.  @p threads are engine thread indices. */
    virtual void begin(Engine &engine,
                       std::span<const unsigned> threads) = 0;

    /**
     * Earliest time this policy could execute its next event, or
     * nullopt when it has nothing left to run (all threads done, or the
     * policy's stop condition — e.g. max_cycles at a slice boundary —
     * holds).  Used by a nesting parent to order its children; the
     * engine's run loop only calls step().
     */
    virtual std::optional<std::uint64_t>
    nextEventTime(const Engine &engine) const = 0;

    /**
     * Execute the next event (the caller picked this policy for it),
     * then every following event that @p horizon admits, stopping once
     * the engine's primary thread is done.  Stopping early is always
     * exact: the caller picks again.  Returns false — with no side
     * effects — when nextEventTime() would be nullopt, so the run loop
     * needs no separate probe per step.
     */
    virtual bool step(Engine &engine, Horizon horizon) = 0;
};

/**
 * The shared execution core.  Owns thread contexts (program, core
 * binding, private clock, spin state, telemetry), the RNG stream and
 * the measurement model; delegates *which thread advances when* to the
 * arbitration policy.
 */
class Engine
{
  public:
    /** One core: every thread must be bound to core 0.  Lock requests
     *  reach the PL-cache model. */
    Engine(sim::CacheHierarchy &hierarchy, const timing::Uarch &uarch,
           ArbitrationPolicy &policy, EngineConfig config = {});

    /** hierarchy.cores() cores behind the shared inclusive LLC.  Lock
     *  requests are ignored (PL locking is single-core only). */
    Engine(sim::MultiCoreHierarchy &hierarchy, const timing::Uarch &uarch,
           ArbitrationPolicy &policy, EngineConfig config = {});

    /**
     * Run until thread @p primary yields Done (or the policy stops:
     * max_cycles elapsed, everything done).  Threads keep their spec
     * order as engine indices and scheduler thread ids.
     *
     * @return the final TSC value (global high-water clock).
     */
    std::uint64_t run(std::span<const ThreadSpec> threads,
                      unsigned primary);

    /** Classic two-program single-core shape (both on core 0). */
    std::uint64_t run(ThreadProgram &thread0, ThreadProgram &thread1,
                      unsigned primary = 1);

    /** TSC after the last run (subsequent runs continue from here). */
    std::uint64_t now() const { return now_; }

    // ----- state and primitives shared by arbitration policies -----

    /** One simulated thread's execution context. */
    struct Thread
    {
        ThreadProgram *program = nullptr;
        std::uint32_t core = 0;
        std::uint64_t clock = 0;      //!< private clock
        std::uint64_t spin_until = 0; //!< pending SpinUntil deadline
                                      //!< (TimeSlice bookkeeping)
        bool done = false;
        ThreadStats stats;
    };

    std::size_t threadCount() const { return threads_.size(); }
    Thread &thread(unsigned idx) { return threads_[idx]; }
    const Thread &thread(unsigned idx) const { return threads_[idx]; }
    /**
     * Telemetry of thread @p idx of the most recent run() — run()
     * rebuilds the thread contexts, so stats reset per run (unlike
     * now(), which persists).  Throws on an out-of-range index.
     */
    const ThreadStats &stats(unsigned idx) const
    {
        return threads_.at(idx).stats;
    }

    unsigned primary() const { return primary_; }
    const EngineConfig &config() const { return config_; }
    const timing::Uarch &uarch() const { return uarch_; }
    sim::Xoshiro256 &rng() { return rng_; }

    /** Raise the global high-water clock to @p tsc (never lowers it). */
    void
    noteTime(std::uint64_t tsc)
    {
        if (tsc > now_)
            now_ = tsc;
    }

    /**
     * Execute one Access/Measure/Flush/MeasureFlush op of thread @p idx
     * starting at @p start: jitter draw, hierarchy access or flush,
     * measurement readout (Measure kinds), result delivery, telemetry,
     * sampled inclusion audit.  Returns the op's cycle cost, opCost()
     * plus the jitter.  SpinUntil/Done are the policy's business.
     */
    std::uint64_t executeOp(unsigned idx, const Op &op,
                            std::uint64_t start);

    /**
     * Run every whole steady iteration thread @p idx offers at @p start
     * whose events all start before @p bound and whose spin ends by it,
     * as arithmetic: one jitter draw per access, the hit costs, the
     * ThreadStats, the thread's clock and spin_until, the L1 counters
     * and the program state advanced exactly as executing the ops one
     * by one would (the resident thread of a TimeSlice slice, which
     * waits out each spin through spin_until).  Returns where the
     * core's clock ends, or nullopt, changing nothing, when no
     * iteration folds.  Only a single-core engine folds: another core's
     * traffic can land between any two ops, and folded accesses would
     * skip the inclusion audit.
     */
    std::optional<std::uint64_t> foldSteady(unsigned idx,
                                            std::uint64_t start,
                                            std::uint64_t bound);

    /**
     * Cycles an op is charged besides its jitter: the latency of the
     * @p level that served it, the op overhead, and the write-back
     * latency per write-back transaction it triggered.  A flush is
     * charged as a memory access with one write-back when the dropped
     * copy was dirty.
     */
    std::uint64_t
    opCost(sim::HitLevel level, std::uint32_t writebacks) const
    {
        return uarch_.latency(level) + config_.op_overhead +
               std::uint64_t{writebacks} * uarch_.wb_latency;
    }

    /**
     * Outcome of a demand access: where the data came from, and how many
     * write-back transactions it triggered along the way (dirty victim
     * evictions, write-through forwards, dirty back-invalidations).  The
     * engine charges each transaction the uarch's write-back latency.
     */
    struct AccessResult
    {
        sim::HitLevel level = sim::HitLevel::Memory;
        std::uint32_t writebacks = 0;
    };

    /** Demand access of @p core (ignored single-core) to whichever
     *  hierarchy the engine was built over. */
    AccessResult
    access(std::uint32_t core, const sim::MemRef &ref,
           sim::LockReq lock_req = sim::LockReq::None)
    {
        if (multi_ != nullptr) {
            const auto res = multi_->access(core, ref);
            return AccessResult{res.level, res.writebacks};
        }
        const auto res = single_->access(ref, lock_req);
        return AccessResult{res.level, res.writebacks};
    }

    /**
     * One clock-arbitrated step of thread @p idx: yield the next op at
     * the thread's private clock, then either finish it (Done), busy-
     * wait (clock = max(clock + 1, until)) or execute and charge the
     * cost.  LowestClock's step for a bare thread.
     */
    void stepClockThread(unsigned idx);

    /**
     * Batched kernel-noise burst issued from @p core under thread id
     * @p tid: touches mean_lines on average (uniform in
     * [mean/2, 3*mean/2]) out of a footprint_lines working set starting
     * at @p base, through the hierarchy's batch interface.  Returns the
     * summed access latency; the caller charges it to its timeline.
     */
    std::uint64_t kernelBurst(std::uint32_t core, sim::ThreadId tid,
                              sim::Addr base, std::uint64_t footprint_lines,
                              std::uint64_t mean_lines);

  private:
    /** clflush of @p ref from every cache of every core. */
    sim::CacheFlushResult flush(const sim::MemRef &ref);
    /** Count one op; run the inclusion audit every audit_every ops. */
    void maybeAudit();
    void audit();

    /** The hierarchy the engine runs over: exactly one is set. */
    sim::CacheHierarchy *single_ = nullptr;
    sim::MultiCoreHierarchy *multi_ = nullptr;
    timing::Uarch uarch_;
    timing::MeasurementModel model_;
    ArbitrationPolicy &policy_;
    EngineConfig config_;
    sim::Xoshiro256 rng_;
    std::uint64_t now_ = 0;
    std::uint64_t ops_since_audit_ = 0;
    std::vector<Thread> threads_;
    unsigned primary_ = 0;
    std::vector<sim::MemRef> burst_refs_;     //!< reused burst buffer
    std::vector<sim::HitLevel> burst_levels_; //!< reused burst buffer
};

// ------------------------------------------------- arbitration policies

/** Knobs of the time-sliced (OS scheduling) model. */
struct TimeSlicePolicyConfig
{
    /**
     * Scheduling quantum in cycles (~40 ms at 3.8 GHz).  Two CPU-bound
     * tasks on CFS get long slices; crucially the quantum is *larger*
     * than the paper's Tr values (up to 4.5e8), so several receiver
     * measurements run inside one slice and only the first one after a
     * sender slice reflects the sender — the mechanism behind Fig. 6's
     * ~30% ceiling.
     */
    std::uint64_t quantum = 150'000'000;
    std::uint64_t quantum_jitter = 80'000'000; //!< uniform extra per slice
    std::uint32_t switch_cost = 3'000;     //!< direct context-switch cost
    std::uint32_t kernel_noise_lines = 48; //!< mean kernel lines touched
                                           //!< per switch (spread over
                                           //!< all sets)
    double background_prob = 0.25; //!< chance a third process takes a
                                   //!< slice instead of the threads
    std::uint32_t background_lines = 1024; //!< its cache footprint
    /**
     * OS timer tick: every tick_period cycles the kernel interrupts the
     * running task and touches a few lines (timer/RCU/softirq work).
     * This is what ages the sender's imprint on the LRU state while the
     * receiver spins — the decay that caps Fig. 6's curves.
     */
    std::uint64_t tick_period = 4'000'000; //!< ~1 ms at ~4 GHz
    std::uint32_t tick_lines = 24;         //!< mean lines per tick

    /** Kernel working set in lines (spread uniformly over all sets). */
    std::uint64_t kernel_footprint_lines = 4096;
    sim::Addr kernel_base = 0x7f00'0000'0000ULL;
    sim::Addr background_base = 0x6e00'0000'0000ULL;
    /** Thread ids for kernel / background accesses in perf counters. */
    sim::ThreadId kernel_thread = 1000;
    sim::ThreadId background_thread = 1001;
};

/**
 * Quantum rotation of one core's threads with OS context-switch
 * effects.  Only one thread runs at a time; every switch executes
 * kernel scheduler code whose cache footprint sprays lines across
 * random sets — the pollution that limits the time-sliced channel in
 * the paper.  Works for any thread count (the seed scheduler was
 * hard-wired to two) and, nested under LowestClock, for any core.
 *
 * step() runs events (open a slice, run the resident thread, close the
 * slice) while the primary is live and the next event is inside the
 * horizon: the whole run as the root policy, up to the runner-up's next
 * event nested under LowestClock, so other cores' shared-LLC traffic
 * still lands between the right ops.  Within a slice only the resident
 * thread runs, so a tight loop runs its ops and lets the engine fold
 * its steady iterations (Engine::foldSteady) up to the next tick, the
 * slice end or the horizon.  TimeSlice decides when ops run; what an op
 * costs is the engine's (Engine::opCost).  The op order, every RNG draw
 * and every latency equal one-event-per-call stepping for any horizon.
 */
class TimeSlice final : public ArbitrationPolicy
{
  public:
    explicit TimeSlice(TimeSlicePolicyConfig config = {})
        : config_(config)
    {}

    void begin(Engine &engine,
               std::span<const unsigned> threads) override;
    std::optional<std::uint64_t>
    nextEventTime(const Engine &engine) const override;
    bool step(Engine &engine, Horizon horizon) override;

  private:
    /** Service every timer tick due at now_; false when max_cycles
     *  stopped it, ending the slice at now_. */
    bool serviceTicks(Engine &engine);
    void contextSwitchNoise(Engine &engine);
    void backgroundSlice(Engine &engine, std::uint64_t slice_end);
    void openSlice(Engine &engine);
    void closeSlice(Engine &engine);
    /** One op (or spin) of the resident thread; @p fold allows the
     *  engine's steady-iteration fold in its place, up to
     *  @p horizon_end. */
    void runInSlice(Engine &engine, bool fold, std::uint64_t horizon_end);

    enum class State
    {
        NeedSlice, //!< next event opens a slice (or a background one)
        InSlice,   //!< next event runs the active thread or closes
    };

    TimeSlicePolicyConfig config_;
    std::vector<unsigned> threads_;
    std::uint32_t core_ = 0;
    State state_ = State::NeedSlice;
    std::size_t active_ = 0;        //!< index into threads_
    std::uint64_t now_ = 0;         //!< core-local clock
    std::uint64_t slice_end_ = 0;
    std::uint64_t next_tick_ = 0;
};

/**
 * Clock-ordered arbitration: each core runs its threads under an
 * explicitly nested child policy, or by default as bare threads on
 * their private clocks, and the engine always steps the child whose
 * next event is earliest (ties toward the lowest core id, then spec
 * order).  Over one core's threads this is the per-op SMT interleave
 * of the paper's Section V-A; across cores, every core makes progress
 * at hardware speed, the interleaving at the shared level is
 * fine-grained and phase-drifting, and the whole run is deterministic
 * for a given seed.
 */
class LowestClock final : public ArbitrationPolicy
{
  public:
    LowestClock() = default;

    /**
     * Nest a child policy for one core's thread group.  The threads of
     * a core without one are arbitrated directly: the live thread with
     * the lowest private clock steps, until max_cycles.
     */
    void nest(std::uint32_t core,
              std::unique_ptr<ArbitrationPolicy> child);

    void begin(Engine &engine,
               std::span<const unsigned> threads) override;
    std::optional<std::uint64_t>
    nextEventTime(const Engine &engine) const override;
    bool step(Engine &engine, Horizon horizon) override;

  private:
    /** A nested core policy, or (policy == nullptr) one thread of a
     *  core with none. */
    struct Child
    {
        ArbitrationPolicy *policy = nullptr;
        unsigned thread = 0; //!< engine thread index of a bare thread
    };

    /** No next event: a child with nothing to run. */
    static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

    /** Child with the earliest next event (and that time), or
     *  index == children_.size() when nothing is runnable; and the
     *  runner-up, the earliest of the others (children_.size() and
     *  kIdle when there is none). */
    struct Pick
    {
        std::size_t index = 0;
        std::uint64_t time = 0;
        std::size_t runner = 0;
        std::uint64_t runner_time = 0;
    };
    Pick pick(const Engine &engine) const;

    /** Explicitly nested per-core policies, in nest() order. */
    std::vector<std::pair<std::uint32_t,
                          std::unique_ptr<ArbitrationPolicy>>> policies_;
    std::vector<Child> children_; //!< ascending core id, then spec order
};

// ------------------------------------------------------ noise programs

/** Knobs of a background-noise core. */
struct NoiseConfig
{
    /**
     * The footprint is a rectangle of cache sets x tags: accesses pick a
     * random set within `footprint_sets` consecutive LLC sets from
     * `base` and a random one of `lines_per_set` distinct tags mapping
     * to it (`set_stride` apart = one full LLC wrap).  The per-set depth
     * matters: more tags per set than the private associativity keeps
     * the core missing privately and streaming through the shared LLC,
     * where it contends for ways.  A flat footprint that fits the
     * private caches goes quiet after warm-up and perturbs nothing.
     */
    std::uint32_t footprint_sets = 128;   //!< consecutive sets covered
    std::uint32_t lines_per_set = 24;     //!< distinct tags per set
    sim::Addr set_stride = 2048 * 64;     //!< bytes between same-set tags
                                          //!< (LLC sets x line size)
    std::uint32_t burst = 32;             //!< accesses per burst
    std::uint64_t gap = 100;              //!< spin between bursts (cycles)
    std::uint64_t seed = 1;
    sim::Addr base = 0x6000'0000'0000ULL; //!< footprint base address
};

/**
 * A background process pinned to its own core: bursts of uniformly
 * random accesses over a private sets-x-tags footprint, separated by
 * short spins.  Every covered set sees contention for LLC ways, so the
 * core both ages replacement state and causes LLC evictions (hence
 * back-invalidations) at a rate set by its knobs.  Never yields Done;
 * deterministic for a given seed.
 */
class NoiseProgram : public ThreadProgram
{
  public:
    explicit NoiseProgram(NoiseConfig config);

    Op next(std::uint64_t now) override;

  private:
    NoiseConfig config_;
    sim::Xoshiro256 rng_;
    std::uint32_t in_burst_ = 0;
};

} // namespace lruleak::exec

#endif // LRULEAK_EXEC_ENGINE_HPP
