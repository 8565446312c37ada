/**
 * @file
 * LRU channel program implementations.
 */

#include "channel/lru_channel.hpp"

#include <algorithm>

namespace lruleak::channel {

// -------------------------------------------------------------- receiver

LruReceiver::LruReceiver(const ChannelLayout &layout, ReceiverConfig config)
    : Receiver(config), layout_(layout), alg_(config.alg), d_(config.d),
      chase_(layout.chaseRefs())
{
    // Algorithm 1 walks lines 0..N (N+1 lines), Algorithm 2 walks
    // lines 0..N-1 (N lines).
    last_line_ = alg_ == LruAlgorithm::Alg1Shared ? layout_.ways()
                                                 : layout_.ways() - 1;
}

exec::Op
LruReceiver::next(std::uint64_t now)
{
    if (finished())
        return exec::Op::done();
    switch (phase_) {
      case Phase::Prewarm:
        if (index_ < chase_.size())
            return exec::Op::access(chase_[index_++]);
        index_ = 0;
        phase_ = Phase::Init;
        setMark(now);
        [[fallthrough]];

      case Phase::Init:
        if (index_ < d_)
            return exec::Op::access(layout_.receiverLine(alg_, index_++));
        index_ = 0;
        phase_ = Phase::Sleep;
        [[fallthrough]];

      case Phase::Sleep:
        phase_ = Phase::Decode;
        if (const auto spin = sleep(now))
            return *spin;
        [[fallthrough]];

      case Phase::Decode:
        if (d_ + index_ <= last_line_)
            return exec::Op::access(layout_.receiverLine(alg_, d_ + index_++));
        index_ = 0;
        phase_ = Phase::Chain;
        [[fallthrough]];

      case Phase::Chain:
        // Refetch the chain so the timed pass hits L1 seven times.
        if (index_ < chase_.size())
            return exec::Op::access(chase_[index_++]);
        index_ = 0;
        phase_ = Phase::Measure;
        [[fallthrough]];

      case Phase::Measure:
        break;
    }
    phase_ = Phase::Init;
    return exec::Op::measure(layout_.receiverLine(alg_, 0), kChainHint);
}

// ---------------------------------------------------------------- sender

LruSender::LruSender(const ChannelLayout &layout, SenderConfig config)
    : layout_(layout), config_(config), line_(layout.senderLine(config.alg))
{
    // The sender's private "stack" lines: always-hot local work placed in
    // a set far from the target so the access mix is realistic without
    // polluting the channel.
    const std::uint32_t stack_set =
        (layout_.targetSet() + 17) % layout_.layout().numSets();
    for (std::uint32_t i = 0; i < config_.stack_lines; ++i) {
        const sim::Addr a = sim::lineInSet(layout_.layout(), stack_set, i,
                                           ChannelLayout::kSenderBase);
        stack_.push_back(sim::MemRef{a, a, kSenderThread, false});
    }
    one_refs_.push_back(line_);
    one_refs_.insert(one_refs_.end(), stack_.begin(), stack_.end());
    setOffersSteady(!config_.write_polarity && !config_.kick_private &&
                    config_.ts != 0);

    // kick_private: 16 lines sharing the target line's private L1/L2
    // index but living in other LLC sets (same aliasing scheme as the
    // spies' kick pool, own tag base).  Sixteen cycles both 8-way
    // private levels, so after a kick burst no private copy of the
    // target line survives and its LLC line is unowned under SHARP.
    if (config_.kick_private) {
        constexpr sim::Addr kSenderKickBase = 0x2800'0000'0000ULL;
        const std::uint32_t sets = layout_.layout().numSets();
        const std::uint32_t stride = std::max<std::uint32_t>(sets / 4, 1);
        for (std::uint32_t i = 0; i < 16; ++i) {
            const std::uint32_t kick_set =
                (layout_.targetSet() + stride * (i % 3 + 1)) % sets;
            const sim::Addr a = sim::lineInSet(layout_.layout(), kick_set,
                                               i / 3, kSenderKickBase);
            kick_.push_back(sim::MemRef{a, a, kSenderThread, false});
        }
    }
}

std::size_t
LruSender::totalBits() const
{
    if (config_.message.empty())
        return 0;
    return config_.message.size() *
        (config_.infinite ? ~std::size_t{0} / config_.message.size()
                          : config_.repeats);
}

int
LruSender::currentBit(std::size_t index) const
{
    if (index >= totalBits())
        return -1;
    return config_.message[index % config_.message.size()];
}

std::optional<exec::SteadyIteration>
LruSender::steadyIteration(std::uint64_t now) const
{
    // Only at an iteration boundary of a started encode loop: next(now)
    // would yield the iteration's first access (or its spin).
    if (phase_ != Phase::Encode || !started_ || sub_step_ != 0)
        return std::nullopt;
    std::size_t index = bit_index_;
    std::uint64_t deadline = bit_deadline_;
    if (now >= deadline) {
        const std::uint64_t skip = (now - deadline) / config_.ts + 1;
        index += skip;
        deadline += skip * config_.ts;
    }
    const int bit = currentBit(index);
    if (bit < 0)
        return std::nullopt;

    // The iteration repeats until the first later bit with another
    // value, or the end of the message.  A full message period of equal
    // bits means the message is constant: the run lasts to the end.
    const std::size_t total = totalBits();
    std::size_t next = index + 1;
    for (std::size_t k = 0; k < config_.message.size() && next < total &&
                            currentBit(next) == bit;
         ++k)
        ++next;
    if (next < total && currentBit(next) == bit)
        next = total;
    const std::uint64_t steps = next - index - 1;
    const std::uint64_t limit =
        steps > (~std::uint64_t{0} - deadline) / config_.ts
            ? ~std::uint64_t{0}
            : deadline + steps * config_.ts;

    exec::SteadyIteration it;
    it.refs = bit == 1 ? std::span<const sim::MemRef>(one_refs_)
                       : std::span<const sim::MemRef>(stack_);
    it.gap = config_.encode_gap;
    it.deadline = deadline;
    it.period = config_.ts;
    it.limit = limit;
    return it;
}

void
LruSender::foldSteady(std::uint64_t iterations, std::uint64_t deadline)
{
    const std::uint64_t advanced = (deadline - bit_deadline_) / config_.ts;
    bit_index_ += advanced;
    bit_deadline_ = deadline;
    bit_ = currentBit(bit_index_);
    // What the folded iterations' next()/onResult() calls would have
    // done: a 1 bit records one L1 encode level per iteration and
    // clears fresh_bit_; a 0 bit leaves it set once a bit began.
    if (bit_ == 1) {
        fresh_bit_ = false;
        encode_levels_.insert(encode_levels_.end(), iterations,
                              sim::HitLevel::L1);
    } else if (advanced > 0) {
        fresh_bit_ = true;
    }
}

exec::Op
LruSender::next(std::uint64_t now)
{
    if (phase_ == Phase::Prewarm) {
        if (config_.prewarm && pre_step_ == 0) {
            ++pre_step_;
            return config_.lock_line
                       ? exec::Op::accessLock(line_, sim::LockReq::Lock)
                       : exec::Op::access(line_);
        }
        // kick_private: expel the prewarmed private copies right away,
        // so the team's warm-up pressure lands on the (unowned) target
        // line instead of wedging into a spy's slice.
        if (config_.prewarm && pre_step_ <= kick_.size())
            return exec::Op::access(kick_[pre_step_++ - 1]);
        phase_ = Phase::Encode;
    }

    if (phase_ == Phase::Finished)
        return exec::Op::done();

    if (!started_) {
        started_ = true;
        start_tsc_ = now;
        bit_deadline_ = now + config_.ts;
        bit_ = currentBit(bit_index_);
    }

    // Advance to the bit that owns the current instant; the bit's value
    // is looked up (a division) only when the index moves.
    if (now >= bit_deadline_) {
        do {
            ++bit_index_;
            bit_deadline_ += config_.ts;
        } while (now >= bit_deadline_);
        sub_step_ = 0;
        fresh_bit_ = true;
        bit_ = currentBit(bit_index_);
    }

    const int bit = bit_;
    if (bit < 0) {
        phase_ = Phase::Finished;
        return exec::Op::done();
    }

    // One encode iteration: (encode access if sending 1) -> (kick walk
    // if kick_private and the line was touched) -> local stack work ->
    // short spin.  The iteration then repeats until Ts expires.
    const std::uint32_t kicks = static_cast<std::uint32_t>(kick_.size());

    if (sub_step_ == 0) {
        sub_step_ = 1;
        if (config_.write_polarity) {
            // Dirty-state encoding: access the line for both symbols,
            // store for 1 and load for 0 (see SenderConfig).
            awaiting_encode_ = true;
            sim::MemRef ref = line_;
            ref.is_write = bit == 1;
            return exec::Op::access(ref);
        }
        if (bit == 1) {
            fresh_bit_ = false;
            awaiting_encode_ = true;
            return exec::Op::access(line_);
        }
        // Sending 0 under the anti-SHARP protocol: park the line once
        // at the start of the bit — resident but (after the kick)
        // unowned, it is the absorber that lets the spies' churn damp
        // back to the quiet state instead of cycling through forced
        // evictions for the rest of the window.
        if (config_.kick_private && fresh_bit_) {
            fresh_bit_ = false;
            return exec::Op::access(line_);
        }
        // Sending 0: no access to the target set, and nothing to kick.
        sub_step_ = 1 + kicks;
    }
    if (sub_step_ <= kicks)
        return exec::Op::access(kick_[sub_step_++ - 1]);
    if (sub_step_ <= kicks + config_.stack_lines) {
        const auto &ref = stack_[sub_step_ - kicks - 1];
        ++sub_step_;
        return exec::Op::access(ref);
    }

    sub_step_ = 0;
    const std::uint64_t wake =
        std::min(now + config_.encode_gap, bit_deadline_);
    return exec::Op::spinUntil(wake);
}

void
LruSender::onResult(const exec::OpResult &result)
{
    if (awaiting_encode_ && result.kind == exec::OpKind::Access) {
        encode_levels_.push_back(result.level);
        awaiting_encode_ = false;
    }
}

Bits
LruSender::sentBits() const
{
    return repeatBits(config_.message, config_.repeats);
}

} // namespace lruleak::channel
