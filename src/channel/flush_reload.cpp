/**
 * @file
 * Flush+Reload receiver implementation.
 */

#include "channel/flush_reload.hpp"

namespace lruleak::channel {

FrReceiver::FrReceiver(const ChannelLayout &layout, FrReceiverConfig config)
    : Receiver(config), kind_(config.kind),
      target_(layout.sharedLine(kReceiverThread)),
      chase_(layout.chaseRefs())
{
    // Eviction set for the FromL1 variant: the receiver's own lines of
    // the target set (as many as the cache has ways).
    for (std::uint32_t i = 1; i <= layout.ways(); ++i)
        evict_.push_back(layout.receiverLine(LruAlgorithm::Alg1Shared, i));
}

exec::Op
FrReceiver::next(std::uint64_t now)
{
    if (finished())
        return exec::Op::done();
    switch (phase_) {
      case Phase::Prewarm:
        if (index_ < chase_.size())
            return exec::Op::access(chase_[index_++]);
        index_ = 0;
        phase_ = Phase::FlushInit;
        [[fallthrough]];

      case Phase::FlushInit:
        if (kind_ == FlushKind::ToMemory) {
            phase_ = Phase::Sleep;
            setMark(now);
            return exec::Op::flush(target_);
        }
        if (index_ < evict_.size())
            return exec::Op::access(evict_[index_++]);
        index_ = 0;
        phase_ = Phase::Sleep;
        setMark(now);
        [[fallthrough]];

      case Phase::Sleep:
        phase_ = Phase::Chain;
        if (const auto spin = sleep(now))
            return *spin;
        [[fallthrough]];

      case Phase::Chain:
        if (index_ < chase_.size())
            return exec::Op::access(chase_[index_++]);
        index_ = 0;
        phase_ = Phase::Measure;
        [[fallthrough]];

      case Phase::Measure:
        phase_ = Phase::Flush;
        return exec::Op::measure(target_, kChainHint);

      case Phase::Flush:
        break;
    }
    if (kind_ == FlushKind::ToMemory) {
        phase_ = Phase::Sleep;
        return exec::Op::flush(target_);
    }
    if (index_ < evict_.size())
        return exec::Op::access(evict_[index_++]);
    index_ = 0;
    phase_ = Phase::Sleep;
    return next(now);
}

} // namespace lruleak::channel
