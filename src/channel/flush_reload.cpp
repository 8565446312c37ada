/**
 * @file
 * Flush+Reload receiver implementation.
 */

#include "channel/flush_reload.hpp"

#include <algorithm>

namespace lruleak::channel {

FrReceiver::FrReceiver(const ChannelLayout &layout, FrReceiverConfig config)
    : Receiver(config.max_samples), layout_(layout), config_(config),
      target_(layout.sharedLine(kReceiverThread)),
      chase_(layout.chaseRefs(config.chain_len)),
      chain_hint_(chase_.size(), sim::HitLevel::L1)
{
    // Eviction set for the FromL1 variant: the receiver's own lines of
    // the target set (as many as the cache has ways).
    for (std::uint32_t i = 1; i <= layout_.ways(); ++i)
        evict_.push_back(layout_.receiverLine(LruAlgorithm::Alg1Shared, i));
}

exec::Op
FrReceiver::next(std::uint64_t now)
{
    switch (phase_) {
      case Phase::Prewarm:
        if (index_ < chase_.size())
            return exec::Op::access(chase_[index_++]);
        index_ = 0;
        phase_ = Phase::FlushInit;
        [[fallthrough]];

      case Phase::FlushInit:
        if (config_.kind == FlushKind::ToMemory) {
            phase_ = Phase::Sleep;
            mark_ = now;
            return exec::Op::flush(target_);
        }
        if (index_ < evict_.size())
            return exec::Op::access(evict_[index_++]);
        index_ = 0;
        phase_ = Phase::Sleep;
        mark_ = now;
        [[fallthrough]];

      case Phase::Sleep: {
        phase_ = Phase::Chain;
        const std::uint64_t deadline = mark_ + config_.tr;
        mark_ = std::max(deadline, now);
        if (deadline > now)
            return exec::Op::spinUntil(deadline);
        [[fallthrough]];
      }

      case Phase::Chain:
        if (index_ < chase_.size())
            return exec::Op::access(chase_[index_++]);
        index_ = 0;
        phase_ = Phase::Measure;
        [[fallthrough]];

      case Phase::Measure:
        phase_ = Phase::Flush;
        return exec::Op::measure(target_, chain_hint_);

      case Phase::Flush:
        if (config_.kind == FlushKind::ToMemory) {
            phase_ = Phase::Sleep;
            return exec::Op::flush(target_);
        }
        if (index_ < evict_.size())
            return exec::Op::access(evict_[index_++]);
        index_ = 0;
        phase_ = Phase::Sleep;
        return next(now);

      case Phase::Finished:
        break;
    }
    return exec::Op::done();
}

void
FrReceiver::onResult(const exec::OpResult &result)
{
    if (result.kind == exec::OpKind::Measure && record(result))
        phase_ = Phase::Finished;
}

} // namespace lruleak::channel
