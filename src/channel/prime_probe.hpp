/**
 * @file
 * Prime+Probe baseline channel (paper Section II-A, Osvik et al.).
 *
 * The receiver occupies the whole target set with N of its own lines
 * (prime), sleeps, then re-walks all N lines as a dependency chain and
 * times the walk (probe).  A sender access to the set evicts one of the
 * primed lines, which shows up as extra latency in the probe.  No shared
 * memory is needed — the sender is the LRU channel's Algorithm 2 sender.
 */

#ifndef LRULEAK_CHANNEL_PRIME_PROBE_HPP
#define LRULEAK_CHANNEL_PRIME_PROBE_HPP

#include <cstdint>
#include <vector>

#include "channel/layout.hpp"
#include "channel/lru_channel.hpp"
#include "exec/op.hpp"

namespace lruleak::channel {

/**
 * The Prime+Probe receiver.  Each Sample's latency is the timed N-access
 * probe chain; the hit/miss threshold is N L1 hits plus half an L2 delta
 * (calibrationFor(uarch, ChannelId::PrimeProbe, Carrier::L1, N)).
 */
class PpReceiver : public Receiver
{
  public:
    PpReceiver(const ChannelLayout &layout, const SamplingConfig &config);

    exec::Op next(std::uint64_t now) override;
    void onResult(const exec::OpResult &result) override;

  private:
    enum class Phase
    {
        Prime,
        Sleep,
        Probe,   //!< N-1 chained accesses, levels collected
        Measure, //!< final chained access, timed
    };

    std::vector<sim::MemRef> lines_;
    std::vector<sim::HitLevel> probe_levels_;

    Phase phase_ = Phase::Prime;
    std::uint32_t index_ = 0;
};

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_PRIME_PROBE_HPP
