/**
 * @file
 * The dirty-state channel family: receivers that decode the *dirty bit*
 * of a cache line instead of its presence.
 *
 * Both channels pair with the write-polarity LruSender (see
 * SenderConfig::write_polarity): the sender touches its line every bit
 * period, storing to it for a 1 and loading it for a 0.  Presence,
 * replacement state and miss counts are identical for both symbols —
 * only the line's dirty bit differs, so monitors that count misses or
 * watch LRU state see nothing.
 *
 *  - DirtyEvictReceiver (Cui et al.): Prime+Probe over the target set,
 *    but decoded through *write-back latency* rather than probe misses.
 *    Re-filling the set evicts the sender's line; when that line is
 *    dirty the eviction stalls on the write-back, and the receiver folds
 *    every write-back its refill triggered into the timed readout.
 *
 *  - FlushDirtyReceiver (Flushgeist): the receiver times clflush of the
 *    shared line.  Flushing a modified line stalls until the data is
 *    written back, so flush latency reads the dirty bit directly — from
 *    any cache level, which makes this the carrier-independent member
 *    of the family (it works unchanged cross-core).
 */

#ifndef LRULEAK_CHANNEL_DIRTY_CHANNEL_HPP
#define LRULEAK_CHANNEL_DIRTY_CHANNEL_HPP

#include <cstdint>
#include <vector>

#include "channel/layout.hpp"
#include "channel/lru_channel.hpp"
#include "exec/op.hpp"

namespace lruleak::channel {

/**
 * The dirty-evict receiver.  Each iteration sleeps, then walks N+1 own
 * lines through the N-way target set *in a fixed sequential order* —
 * the paper's Table I eviction sequence (lines 0..N), the only access
 * pattern that evicts an untouched line reliably under Tree-PLRU.  The
 * sender's line is the one line the walk never touches, so the walk's
 * refills evict it; when it is dirty the eviction stalls on the
 * write-back.
 *
 * The walk itself is left untimed: an over-subscribed walk's miss count
 * depends on the replacement policy (under true LRU it thrashes
 * completely), so timing it would bury the write-back stall under
 * refill variance.  Instead the receiver refetches a line in its
 * private chase set and times that — a guaranteed L1 hit — folding
 * every write-back the iteration triggered into the readout via
 * Op::measure's chain_writebacks.  This models an attacker timing the
 * whole walk with the hit/refill portion abstracted away, and makes the
 * sample's ONLY modulation the dirty bit: clean iterations read the L1
 * floor for every carrier, dirty ones read one uarch write-back above
 * it.
 */
class DirtyEvictReceiver : public Receiver
{
  public:
    DirtyEvictReceiver(const ChannelLayout &layout,
                       const SamplingConfig &config);

    exec::Op next(std::uint64_t now) override;
    void onResult(const exec::OpResult &result) override;

  private:
    enum class Phase
    {
        Sleep,
        Walk,    //!< N+1 ordered accesses, write-backs collected
        Refetch, //!< pull the readout line into L1
        Measure, //!< timed L1 hit + the iteration's write-back stalls
    };

    std::vector<sim::MemRef> lines_;
    sim::MemRef readout_;
    std::uint32_t pending_writebacks_ = 0; //!< since the last Measure

    Phase phase_ = Phase::Sleep;
    std::uint32_t index_ = 0;
};

/**
 * The flush-dirty receiver: sleep, then timed clflush of the shared
 * line.  The flush also resets the dirty bit, so each sample reads
 * "did the sender store since my previous flush" — one bit per flush,
 * no priming, no eviction choreography.
 */
class FlushDirtyReceiver : public Receiver
{
  public:
    FlushDirtyReceiver(const ChannelLayout &layout,
                       const SamplingConfig &config);

    exec::Op next(std::uint64_t now) override;

  private:
    sim::MemRef line_;
    bool slept_ = false; //!< the wait spun: time the flush next
};

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_DIRTY_CHANNEL_HPP
