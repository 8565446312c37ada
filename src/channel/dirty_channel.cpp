/**
 * @file
 * Dirty-state receiver implementations.
 */

#include "channel/dirty_channel.hpp"

namespace lruleak::channel {

// --------------------------------------------------------- dirty-evict

DirtyEvictReceiver::DirtyEvictReceiver(const ChannelLayout &layout,
                                       const SamplingConfig &config)
    : Receiver(config), readout_(layout.chaseRefs().front())
{
    // N+1 own lines for the N-way target set: the paper's Table I
    // eviction sequence.  A plain N-line prime (Prime+Probe's walk)
    // cannot carry this channel — under any recency policy the refill
    // victim is one of our own stale lines, never the sender's line,
    // which stays resident and dirty forever.
    for (std::uint32_t i = 0; i <= layout.ways(); ++i)
        lines_.push_back(layout.receiverLine(LruAlgorithm::Alg2Disjoint, i));
}

exec::Op
DirtyEvictReceiver::next(std::uint64_t now)
{
    if (finished())
        return exec::Op::done();
    switch (phase_) {
      case Phase::Sleep:
        phase_ = Phase::Walk;
        if (const auto spin = sleep(now))
            return *spin;
        [[fallthrough]];

      case Phase::Walk:
        // Fixed sequential order 0..N: Table I shows this is what makes
        // the untouched (sender's) line the Tree-PLRU victim.
        if (index_ < lines_.size())
            return exec::Op::access(lines_[index_++]);
        index_ = 0;
        phase_ = Phase::Refetch;
        [[fallthrough]];

      case Phase::Refetch:
        phase_ = Phase::Measure;
        return exec::Op::access(readout_);

      case Phase::Measure:
        break;
    }
    phase_ = Phase::Sleep;
    // Every write-back since the previous sample stalled this
    // iteration's walk; fold them all into the timed L1 hit (the
    // engine adds the timed access's own write-backs on top).
    return exec::Op::measure(readout_, {}, pending_writebacks_);
}

void
DirtyEvictReceiver::onResult(const exec::OpResult &result)
{
    if (result.kind == exec::OpKind::Access)
        pending_writebacks_ += result.writebacks;
    else if (result.kind == exec::OpKind::Measure)
        pending_writebacks_ = 0;
    Receiver::onResult(result);
}

// --------------------------------------------------------- flush-dirty

FlushDirtyReceiver::FlushDirtyReceiver(const ChannelLayout &layout,
                                       const SamplingConfig &config)
    : Receiver(config), line_(layout.sharedLine(kReceiverThread))
{}

exec::Op
FlushDirtyReceiver::next(std::uint64_t now)
{
    if (finished())
        return exec::Op::done();
    if (!slept_) {
        if (const auto spin = sleep(now)) {
            slept_ = true;
            return *spin;
        }
    }
    slept_ = false;
    return exec::Op::measureFlush(line_);
}

} // namespace lruleak::channel
