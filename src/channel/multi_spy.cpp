/**
 * @file
 * Multi-spy receiver implementation.
 */

#include "channel/multi_spy.hpp"

#include <algorithm>
#include <stdexcept>

#include "channel/decoder.hpp"

namespace lruleak::channel {

namespace {

// Per-spy address bases, clear of every ChannelLayout base and of the
// noise-program footprints at 0x6000'0000'0000+.
constexpr sim::Addr kKickBase = 0x5000'0000'0000ULL;
constexpr sim::Addr kSpyStride = 0x0010'0000'0000ULL;

/**
 * Kick-walk length: accesses per iteration to lines sharing the probe
 * set's private L1/L2 index but mapping to other LLC sets.  16 cycles
 * both 8-way private levels completely, expelling the spy's private
 * probe copies so its next probes reach the LLC.  In kick-walk mode
 * holders kick (at most 8 lines: their slice sits in one private set)
 * and the trigger does not; in pin-slices mode only the trigger kicks.
 */
constexpr std::uint32_t kKickLines = 16;

} // namespace

SpyReceiver::SpyReceiver(const ChannelLayout &layout,
                         const MultiSpyConfig &config, std::uint32_t index)
    : Receiver(config), layout_(layout), config_(config),
      index_in_team_(index)
{
    const std::uint32_t ways = layout_.ways();
    const std::uint32_t team = config_.spies;
    if (team < 2)
        throw std::invalid_argument(
            "SpyReceiver: a team needs at least two spies");
    const std::uint32_t sets = layout_.layout().numSets();
    const sim::Addr spy_base = kKickBase + index * kSpyStride;
    const sim::ThreadId thread = kReceiverThread + index;

    trigger_ = index == team - 1;
    if (trigger_) {
        // The trigger holds no probe slice; it plants one canary
        // conflict line in the target set (file comment).
        lo_ = hi_ = 0;
        const sim::Addr a = sim::lineInSet(layout_.layout(),
                                           layout_.targetSet(), 0, spy_base);
        canary_ = sim::MemRef{a, a, thread, false};
    } else {
        // Holder h of K-1: an equal share of the first ways - 1 probe
        // lines (the one-way slack is what the sender's line and the
        // trigger's canary fight over), capped at the 8 ways the
        // private levels can pin.
        const std::uint32_t holders = team - 1;
        const std::uint32_t span = ways > 1 ? ways - 1 : 1;
        lo_ = index * span / holders;
        hi_ = (index + 1) * span / holders;
        if (hi_ <= lo_)
            throw std::invalid_argument(
                "SpyReceiver: more holders than probe lines");
        hi_ = std::min(hi_, lo_ + 8);
    }

    // Kick lines: same private-cache set as the probe set (the stride
    // keeps the low set bits, which are the L1/L2 index bits, equal)
    // but different LLC sets — they expel the spy's private copies
    // without touching the target LLC set, so the next walk reaches
    // the shared level and re-stamps ownership and RRIP age there.
    // Only three LLC sets alias the probe set's private index, so the
    // whole team shares one kick pool (kKickBase, no per-spy stride —
    // shared lines just hit) and holders kick only the 8 ways of the
    // one private set their slice occupies.
    // In pin-slices mode only the trigger kicks, and it needs the full
    // cycle: a half-expelled canary (still in L2) would stay owned and
    // SHARP would never let the sender's fill take it.
    const std::uint32_t stride = std::max<std::uint32_t>(sets / 4, 1);
    const std::uint32_t kicks = config_.pin_slices ? kKickLines : 8;
    kick_.reserve(kicks);
    for (std::uint32_t i = 0; i < kicks; ++i) {
        const std::uint32_t kick_set =
            (layout_.targetSet() + stride * (i % 3 + 1)) % sets;
        const sim::Addr a = sim::lineInSet(layout_.layout(), kick_set,
                                           i / 3, kKickBase);
        kick_.push_back(sim::MemRef{a, a, thread, false});
    }
}

sim::MemRef
SpyReceiver::probeLine(std::uint32_t i) const
{
    sim::MemRef ref = layout_.receiverLine(LruAlgorithm::Alg2Disjoint, i);
    ref.thread = kReceiverThread + index_in_team_;
    return ref;
}

void
SpyReceiver::endIteration()
{
    if (++iter_ >= budget())
        finish();
    phase_ = Phase::Sleep;
}

exec::Op
SpyReceiver::next(std::uint64_t now)
{
    if (finished())
        return exec::Op::done();
    switch (phase_) {
      case Phase::Prewarm:
        if (trigger_ && step_ < 1) {
            // Plant the canary; it goes stale at the LLC on purpose.
            ++step_;
            return exec::Op::access(canary_);
        }
        step_ = 0;
        phase_ = Phase::Sleep;
        // Stagger the team's phases across the period so one holder's
        // kick burst (its slice momentarily unowned) never overlaps
        // another spy's refill.
        setMark(now + tr() * index_in_team_ / config_.spies);
        [[fallthrough]];

      case Phase::Sleep:
        phase_ = trigger_ ? Phase::Measure
                          : (config_.pin_slices ? Phase::Walk
                                                : Phase::Kick);
        if (const auto spin = sleep(now))
            return *spin;
        return next(now);

      case Phase::Kick:
        // Expel the private probe copies so the next walk reaches the
        // LLC.  For holders the kick runs back-to-back with the walk:
        // the slice is unowned only for this short burst, and owned —
        // and, freshly re-stamped, RRIP-young — through the long sleep
        // that follows.
        if (step_ < kick_.size())
            return exec::Op::access(kick_[step_++]);
        step_ = 0;
        if (trigger_)
            // Pin-slices trigger: kick ran after the measure; the
            // iteration is complete.
            endIteration();
        else
            phase_ = Phase::Walk;
        return next(now);

      case Phase::Walk:
        // Holder: timed re-walk of the whole slice right after the
        // kick.  Reaching the LLC re-stamps ownership and RRIP age, so
        // through the sleep the slice is young and owned — never the
        // forced-eviction victim.  A back-invalidated line misses to
        // memory (slow): the holder both observes the eviction and
        // re-pins the line.
        if (step_ < hi_ - lo_)
            return exec::Op::measure(probeLine(lo_ + step_++), kChainHint);
        step_ = 0;
        endIteration();
        return next(now);

      case Phase::Measure:
        break;
    }
    // Trigger: one timed canary access per iteration.  A fast access
    // means the canary still sits in the LLC (sender idle); a
    // memory-latency miss means the sender's fill took it — and this
    // very measure refills it, taking the sender's (unowned) line back
    // out in turn (file comment).  In pin-slices mode the measure is
    // followed by a kick burst that re-releases the canary's ownership
    // for the next round.
    if (config_.pin_slices)
        phase_ = Phase::Kick;
    else
        endIteration();
    return exec::Op::measure(canary_, kChainHint);
}

void
SpyReceiver::onResult(const exec::OpResult &result)
{
    // Spies stop on the iteration budget in next(), not on the sample
    // budget: holders emit a whole slice of samples per iteration.
    if (result.kind == exec::OpKind::Measure)
        record(result);
}

Bits
mergeSpySymbols(const std::vector<Bits> &per_spy)
{
    if (per_spy.empty())
        return {};
    const std::size_t nbits = per_spy.front().size();
    for (const Bits &row : per_spy) {
        if (row.size() != nbits)
            throw std::invalid_argument(
                "mergeSpySymbols: rows must be equally long");
    }

    Bits merged(nbits, 0);
    for (std::size_t i = 0; i < nbits; ++i) {
        bool any_one = false;
        bool all_erased = true;
        for (const Bits &row : per_spy) {
            any_one = any_one || row[i] == 1;
            all_erased = all_erased && row[i] == kErasureSymbol;
        }
        merged[i] = any_one ? 1 : (all_erased ? kErasureSymbol : 0);
    }
    return merged;
}

} // namespace lruleak::channel
