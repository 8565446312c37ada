/**
 * @file
 * Prime+Probe receiver implementation.
 */

#include "channel/prime_probe.hpp"

namespace lruleak::channel {

PpReceiver::PpReceiver(const ChannelLayout &layout,
                       const SamplingConfig &config)
    : Receiver(config)
{
    // The receiver's own N lines filling the target set.
    for (std::uint32_t i = 0; i < layout.ways(); ++i)
        lines_.push_back(layout.receiverLine(LruAlgorithm::Alg2Disjoint, i));
}

exec::Op
PpReceiver::next(std::uint64_t now)
{
    if (finished())
        return exec::Op::done();
    switch (phase_) {
      case Phase::Prime:
        if (index_ < lines_.size())
            return exec::Op::access(lines_[index_++]);
        index_ = 0;
        phase_ = Phase::Sleep;
        [[fallthrough]];

      case Phase::Sleep:
        phase_ = Phase::Probe;
        probe_levels_.clear();
        if (const auto spin = sleep(now))
            return *spin;
        [[fallthrough]];

      case Phase::Probe:
        // Probe lines N-1 .. 1 (reverse order reduces self-eviction with
        // PLRU), collecting their levels; the final access is timed.
        if (index_ + 1 < lines_.size()) {
            const auto &ref = lines_[lines_.size() - 1 - index_];
            ++index_;
            return exec::Op::access(ref);
        }
        index_ = 0;
        phase_ = Phase::Measure;
        [[fallthrough]];

      case Phase::Measure:
        break;
    }
    phase_ = Phase::Prime;
    return exec::Op::measure(lines_[0], probe_levels_);
}

void
PpReceiver::onResult(const exec::OpResult &result)
{
    if (result.kind == exec::OpKind::Access && phase_ == Phase::Probe)
        probe_levels_.push_back(result.level);
    else
        Receiver::onResult(result);
}

} // namespace lruleak::channel
