/**
 * @file
 * The LRU-channel sender and receiver programs (paper Algorithms 1-3).
 *
 * Both parties are ThreadPrograms driven by a scheduler:
 *
 *  Receiver (Algorithms 1/2 + the sampling loop of Algorithm 3):
 *    loop {
 *      Init:    access lines 0..d-1 of the target set
 *      Sleep:   spin until Tlast + Tr
 *      Decode:  access the remaining lines (d..N for Alg 1, d..N-1 for 2)
 *      Measure: warm the 7-element chase chain, then time line 0
 *    }
 *
 *  Sender (Algorithm 3): for every message bit, for Ts cycles: if the bit
 *  is 1, keep touching its line (shared line 0 for Alg 1, own line N for
 *  Alg 2); if the bit is 0, don't touch the target set.  Either way it
 *  does its local "stack" work so miss rates are measured against a
 *  realistic access mix.
 */

#ifndef LRULEAK_CHANNEL_LRU_CHANNEL_HPP
#define LRULEAK_CHANNEL_LRU_CHANNEL_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "channel/bitstring.hpp"
#include "channel/layout.hpp"
#include "exec/op.hpp"
#include "timing/pointer_chase.hpp"

namespace lruleak::channel {

/** One timed observation by the receiver. */
struct Sample
{
    std::uint64_t tsc = 0;        //!< when the measurement completed
    std::uint32_t latency = 0;    //!< pointer-chase readout (cycles)
    sim::HitLevel level = sim::HitLevel::L1; //!< ground truth (sim only)
};

/**
 * The knobs of Algorithm 3's sampling clock, shared by every receiver.
 * Receivers that need more add it in their own config.
 */
struct SamplingConfig
{
    std::uint64_t tr = 600;           //!< sampling period Tr in cycles
    std::uint64_t max_samples = 1000; //!< sample budget (spies: iterations)
};

/** Receiver knobs of Algorithms 1/2. */
struct ReceiverConfig : SamplingConfig
{
    LruAlgorithm alg = LruAlgorithm::Alg1Shared;
    std::uint32_t d = 8;            //!< init-phase length (paper's d)
};

/**
 * Base of every receiver program (the LRU, Flush+Reload, Prime+Probe,
 * dirty-state and multi-spy designs).  It owns what Algorithm 3 makes
 * common to all of them: the sampling clock (Tr and the Tlast mark),
 * the budget stop and the Sample trace the decoder reads.  A receiver
 * keeps only its own phases; its Sleep phase calls sleep().
 */
class Receiver : public exec::ThreadProgram
{
  public:
    const std::vector<Sample> &samples() const { return samples_; }

    /** Records each Measure/MeasureFlush readout; stops on the budget. */
    void
    onResult(const exec::OpResult &result) override
    {
        if ((result.kind == exec::OpKind::Measure ||
             result.kind == exec::OpKind::MeasureFlush) &&
            record(result))
            finish();
    }

  protected:
    explicit Receiver(const SamplingConfig &sampling)
        : tr_(sampling.tr), max_samples_(sampling.max_samples)
    {
        samples_.reserve(max_samples_);
    }

    using ChainHint =
        std::array<sim::HitLevel, timing::MeasurementModel::kChainLength>;
    /**
     * The expected chain levels of a timed readout: the paper's
     * 7-element pointer chase (footnote 3), all L1 hits.
     */
    static constexpr ChainHint kChainHint = [] {
        ChainHint hint{};
        hint.fill(sim::HitLevel::L1);
        return hint;
    }();

    /**
     * Algorithm 3's wait: the spin until Tlast + Tr, with Tlast moved to
     * that deadline; nullopt when @p now is already past it, with Tlast
     * snapped to @p now (Tlast is the TSC when the wait loop exits).
     */
    std::optional<exec::Op>
    sleep(std::uint64_t now)
    {
        const std::uint64_t deadline = mark_ + tr_;
        mark_ = std::max(deadline, now);
        if (deadline > now)
            return exec::Op::spinUntil(deadline);
        return std::nullopt;
    }

    /** Set Tlast (the first mark; 0 until a receiver sets it). */
    void setMark(std::uint64_t tlast) { mark_ = tlast; }

    std::uint64_t tr() const { return tr_; }
    std::uint64_t budget() const { return max_samples_; }

    /** Append @p result's readout; true once the budget is spent. */
    bool
    record(const exec::OpResult &result)
    {
        samples_.push_back(Sample{result.tsc, result.measured, result.level});
        return samples_.size() >= max_samples_;
    }

    /** Stop: every later next() should yield Op::done(). */
    void finish() { finished_ = true; }
    bool finished() const { return finished_; }

  private:
    std::vector<Sample> samples_;
    std::uint64_t tr_;
    std::uint64_t max_samples_;
    std::uint64_t mark_ = 0; //!< Tlast of Algorithm 3
    bool finished_ = false;
};

/**
 * The receiver program.  Collects one Sample per protocol iteration.
 */
class LruReceiver : public Receiver
{
  public:
    LruReceiver(const ChannelLayout &layout, ReceiverConfig config);

    exec::Op next(std::uint64_t now) override;

  private:
    enum class Phase
    {
        Prewarm, //!< initial fetch of the chase chain
        Init,    //!< lines 0..d-1
        Sleep,   //!< spin until Tlast + Tr
        Decode,  //!< lines d..last
        Chain,   //!< warm the chase chain
        Measure, //!< timed access to line 0
    };

    ChannelLayout layout_;
    LruAlgorithm alg_;
    std::uint32_t d_;
    std::vector<sim::MemRef> chase_;

    Phase phase_ = Phase::Prewarm;
    std::uint32_t index_ = 0;      //!< loop index within the phase
    std::uint32_t last_line_;      //!< N for Alg 1, N-1 for Alg 2
};

/** Sender knobs. */
struct SenderConfig
{
    LruAlgorithm alg = LruAlgorithm::Alg1Shared;
    Bits message;                 //!< bits to send
    std::uint32_t repeats = 1;    //!< send the message this many times
    std::uint64_t ts = 6000;      //!< per-bit period in cycles
    std::uint32_t encode_gap = 40; //!< spin between encode iterations
    bool infinite = false;        //!< loop the message forever
    bool prewarm = true;          //!< fetch the line before starting
    bool lock_line = false;       //!< PL cache: lock the line on prewarm
    std::uint32_t stack_lines = 2; //!< local accesses per iteration

    /**
     * Encode in the line's *dirty bit* instead of its presence: the
     * sender touches its line every bit, as a store when sending 1 and
     * as a load when sending 0.  The access mix (and hence the miss
     * count) is identical for both symbols — the dirty-state channels'
     * stealth argument — and the receiver reads the bit back through
     * write-back latency (dirty-evict) or flush latency (flush-dirty).
     */
    bool write_polarity = false;

    /**
     * Anti-SHARP team protocol (see channel/multi_spy.hpp): after every
     * encode access the sender expels its own private copies of the
     * target line (a kick walk over lines that conflict in the private
     * L1/L2 but map to other LLC sets).  With no private copy left the
     * LLC line is *unowned* under SHARP's ownership rule, so the
     * cooperating spies may evict it through the ordinary re-victimize
     * path — the covert sender deliberately waives the protection a
     * victim would enjoy.  Off for single-receiver sessions.
     */
    bool kick_private = false;
};

/**
 * The sender program.
 */
class LruSender : public exec::ThreadProgram
{
  public:
    LruSender(const ChannelLayout &layout, SenderConfig config);

    exec::Op next(std::uint64_t now) override;
    void onResult(const exec::OpResult &result) override;

    /**
     * The plain encode loop (no write_polarity or kick_private) offers
     * each iteration for folding: the encode access when sending 1, the
     * stack work, then the spin, repeated until the bit value changes
     * or the message ends.
     */
    std::optional<exec::SteadyIteration>
    steadyIteration(std::uint64_t now) const override;
    void foldSteady(std::uint64_t iterations,
                    std::uint64_t deadline) override;

    /** TSC at which bit 0 started (for decoder alignment). */
    std::uint64_t startTsc() const { return start_tsc_; }

    /** Bits actually sent (message x repeats), for error scoring. */
    Bits sentBits() const;

    /**
     * Hit levels of the encode accesses (Table V: where the sender's
     * modulating access was served — L1 for the LRU channels, L2 or
     * memory for the Flush+Reload variants).
     */
    const std::vector<sim::HitLevel> &encodeLevels() const
    {
        return encode_levels_;
    }

  private:
    enum class Phase
    {
        Prewarm,
        Encode,
        Finished,
    };

    /** Bits the sender will send (huge when infinite). */
    std::size_t totalBits() const;
    /** The bit currently being sent, or -1 past the end. */
    int currentBit(std::size_t index) const;

    ChannelLayout layout_;
    SenderConfig config_;
    sim::MemRef line_;
    std::vector<sim::MemRef> stack_;
    std::vector<sim::MemRef> kick_; //!< kick_private: private-copy expellers
    /** A 1-bit iteration's accesses: the encode access, then stack_. */
    std::vector<sim::MemRef> one_refs_;

    Phase phase_ = Phase::Prewarm;
    std::uint32_t pre_step_ = 0;   //!< prewarm sub-step
    std::size_t bit_index_ = 0;
    int bit_ = -1; //!< currentBit(bit_index_), once started_
    std::uint64_t bit_deadline_ = 0;
    std::uint64_t start_tsc_ = 0;
    bool started_ = false;
    std::uint32_t sub_step_ = 0;   //!< 0 = encode access, then stack work
    bool fresh_bit_ = true;        //!< first iteration of the current bit
    bool awaiting_encode_ = false; //!< next result is an encode access
    std::vector<sim::HitLevel> encode_levels_;
};

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_LRU_CHANNEL_HPP
