/**
 * @file
 * The multi-spy adversary against a SHARP-protected shared LLC.
 *
 * SHARP's per-line ownership makes the single cross-core receiver
 * harmless: its eviction walk can never displace the sender-owned line
 * (there is always an unowned or self-owned way to re-victimize), so
 * the sender keeps hitting privately, SHARP's scan-order
 * re-victimization replaces the LRU-order evictions Algorithm 2
 * decodes, and the replacement state stops carrying the message.  The
 * counter-attack is cooperation, built on two observations: a line is
 * protected only while a *private* copy pins its ownership, and
 * SHARP's re-victimization is deterministic once exactly one unowned
 * way exists.  In a covert channel the sender colludes, so the team
 * plays both sides of the ownership rule (pin-slices protocol,
 * MultiSpyConfig::pin_slices + SenderConfig::kick_private):
 *
 *  - K-1 "holders" split the first ways-1 probe lines and *pin* them:
 *    the per-Tr re-measure walk keeps every private copy hot, so the
 *    slice is owned — unevictable short of a forced eviction — at
 *    every instant.  Unvisited at the LLC, the slices also go
 *    replacement-stale there, which keeps the victim preview pointed
 *    at a holder line and SHARP permanently in its re-victimize path.
 *
 *  - one "trigger" (the last spy) plants a single canary conflict
 *    line in the target set; each iteration it measures the canary
 *    and then kicks its own private copies out, leaving the canary
 *    resident but *unowned* — the one line SHARP may take.
 *
 *  - the sender (SenderConfig::kick_private) kicks its own private
 *    copies after every touch of the target line, waiving the
 *    protection a real victim would enjoy, and parks the line —
 *    resident, unowned — once at the start of every 0-bit.
 *
 * The target set then holds 15 owned holder lines plus the canary and
 * the sender's line fighting over the last way, exactly one of them
 * resident at a time.  A 1-bit is a sustained alternation: the
 * sender's encode access misses, the refill's victim preview lands on
 * an owned holder line, SHARP refuses (alarm) and re-victimizes the
 * only unowned way — the canary.  The trigger's next measure misses
 * to memory (the observation) and its refill takes the sender's
 * unowned line back out, which the sender re-faults within its encode
 * gap: the canary stays out for most of every Tr and the trigger's
 * row reads slow for the whole bit.  A 0-bit damps in one round: the
 * parked sender line absorbs the last refill and everything sits
 * still.
 *
 * The attack trades detectability for restored leakage — every churn
 * round costs a refusal alarm on the sender's and the trigger's core,
 * ~20 alarms per transmitted 1 — and quantifying that tradeoff (plus
 * the alarm-threshold fill-denial response, which together with
 * ambient noise does suppress the team) is what the `sharp_defense`
 * experiment does.  With K = 2 the single holder can pin at most its
 * private capacity (8 ways), the set never wedges, victim previews
 * find unowned junk and evict it silently: the channel stays dead and
 * SHARP forces the adversary to at least three cooperating cores.
 *
 * Decode stays on the unchanged Session/Calibration pipeline: every
 * spy yields an ordinary Sample trace; windowSymbols() aligns each
 * trace to the sender's bit clock and mergeSpySymbols() folds the
 * per-bit symbol rows into one (any spy saw the eviction => 1).  The
 * trigger's canary row carries the signal; holder rows read all-fast
 * and only contribute the occasional back-invalidation they absorb.
 * Against an unprotected LLC the team instead keeps slices young with
 * kick+walk bursts (pin_slices off) so replacement age steers fills
 * into the canary.  A team has at least two spies (one holder and the
 * trigger); a session with one receiver runs the channel's own
 * receiver instead.
 */

#ifndef LRULEAK_CHANNEL_MULTI_SPY_HPP
#define LRULEAK_CHANNEL_MULTI_SPY_HPP

#include <cstdint>
#include <vector>

#include "channel/bitstring.hpp"
#include "channel/layout.hpp"
#include "channel/lru_channel.hpp"
#include "exec/op.hpp"

namespace lruleak::channel {

/**
 * Knobs of the whole K-spy team (each spy derives its own share): the
 * per-spy sampling clock, whose budget counts iterations, not samples.
 */
struct MultiSpyConfig : SamplingConfig
{
    std::uint32_t spies = 2;      //!< K >= 2 cooperating receiver threads

    /**
     * Anti-SHARP team protocol (file comment).  Holders *pin* their
     * slices — no kick, so their private copies survive and the slice
     * stays owned at every instant — while the trigger kicks its own
     * canary copies each iteration, leaving the canary resident but
     * unowned: the unique line SHARP's re-victimization may take.
     * Pairs with SenderConfig::kick_private on the sender side.  Off
     * (kick-walk mode) for unprotected LLCs, where victim selection
     * follows replacement age and the slices must stay young instead.
     */
    bool pin_slices = false;
};

/**
 * Spy @p index of the team (see file comment for the role split).
 * Thread id is kReceiverThread + index so per-thread cache counters
 * stay separable; channel::Session pins spy j to core 1 + j.  Throws
 * std::invalid_argument for a team of fewer than two spies.
 */
class SpyReceiver : public Receiver
{
  public:
    SpyReceiver(const ChannelLayout &layout, const MultiSpyConfig &config,
                std::uint32_t index);

    exec::Op next(std::uint64_t now) override;
    void onResult(const exec::OpResult &result) override;

  private:
    enum class Phase
    {
        Prewarm, //!< trigger: canary install
        Kick,    //!< expel own private probe copies
        Sleep,   //!< spin until Tlast + Tr
        Walk,    //!< holder: timed re-walk of the slice
        Measure, //!< trigger: timed canary access
    };

    ChannelLayout layout_;
    MultiSpyConfig config_;
    std::uint32_t index_in_team_;
    bool trigger_ = false;
    std::uint32_t lo_ = 0;         //!< first probe line of the slice
    std::uint32_t hi_ = 0;         //!< one past the last probe line
    std::vector<sim::MemRef> kick_;
    sim::MemRef canary_{};         //!< trigger only: the planted line

    Phase phase_ = Phase::Prewarm;
    std::uint32_t step_ = 0;       //!< loop index within the phase
    std::uint64_t iter_ = 0;       //!< completed iterations

    sim::MemRef probeLine(std::uint32_t i) const;
    /** Count a completed iteration: sleep next, or stop on the budget. */
    void endIteration();
};

/**
 * Fold K aligned per-spy symbol rows (one windowSymbols() result per
 * spy, each exactly nbits long) into one row: a bit decodes to 1 when
 * *any* spy saw the eviction, to kErasureSymbol when *every* spy's
 * window was empty, and to 0 otherwise.  The output aligns 1:1 with
 * the sent bits, like the single-receiver windowSymbols() contract.
 */
Bits mergeSpySymbols(const std::vector<Bits> &per_spy);

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_MULTI_SPY_HPP
