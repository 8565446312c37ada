/**
 * @file
 * Flush+Reload baseline channels (paper Sections II-A and VII).
 *
 * Two variants, matching the paper's Table V/VI comparison:
 *  - F+R (mem): the receiver clflushes the shared line to memory, so the
 *    sender's encode access is a full memory miss;
 *  - F+R (L1): the receiver evicts the shared line from L1 only (eight
 *    accesses to the set), so the sender's encode access hits L2.
 *
 * The sender is the same program as the LRU channel's (Algorithm 1
 * shared-line polarity): access = 1, no access = 0.  Only the receiver
 * differs: reload-and-time, then flush/evict, no LRU trickery.
 */

#ifndef LRULEAK_CHANNEL_FLUSH_RELOAD_HPP
#define LRULEAK_CHANNEL_FLUSH_RELOAD_HPP

#include <cstdint>
#include <vector>

#include "channel/layout.hpp"
#include "channel/lru_channel.hpp"
#include "exec/op.hpp"

namespace lruleak::channel {

/** Which level the receiver evicts the shared line to. */
enum class FlushKind
{
    ToMemory, //!< clflush (F+R mem)
    FromL1,   //!< eight same-set accesses (F+R L1)
};

/** Flush+Reload receiver knobs. */
struct FrReceiverConfig : SamplingConfig
{
    FlushKind kind = FlushKind::ToMemory;
};

/**
 * The Flush+Reload receiver: sleep -> reload (timed) -> flush -> repeat.
 */
class FrReceiver : public Receiver
{
  public:
    FrReceiver(const ChannelLayout &layout, FrReceiverConfig config);

    exec::Op next(std::uint64_t now) override;

  private:
    enum class Phase
    {
        Prewarm,
        FlushInit, //!< establish the flushed state before the first bit
        Sleep,
        Chain,
        Measure,
        Flush,
    };

    FlushKind kind_;
    sim::MemRef target_;
    std::vector<sim::MemRef> chase_;
    std::vector<sim::MemRef> evict_; //!< FromL1 eviction lines

    Phase phase_ = Phase::Prewarm;
    std::uint32_t index_ = 0;
};

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_FLUSH_RELOAD_HPP
