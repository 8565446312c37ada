/**
 * @file
 * Address plan for the LRU channel protocols.
 *
 * The paper's `line 0..N` are N+1 distinct cache lines mapping to one
 * target set.  This class hands out concrete virtual/physical addresses
 * for each party:
 *
 *  - Algorithm 1 (shared memory): `line 0` is one physical line visible
 *    to both processes (shared-library page); lines 1..N are private to
 *    the receiver.
 *  - Algorithm 2 (no shared memory): the receiver owns lines 0..N-1, the
 *    sender owns `line N`; they only agree on the set index, which works
 *    because bits 6..11 are page-offset bits identical in VA and PA.
 *
 * The receiver's 7-element pointer-chase chain lives in a different set
 * (the paper's optimisation to keep it from polluting the target set).
 */

#ifndef LRULEAK_CHANNEL_LAYOUT_HPP
#define LRULEAK_CHANNEL_LAYOUT_HPP

#include <cstdint>
#include <vector>

#include "sim/address.hpp"
#include "sim/cache_config.hpp"
#include "timing/pointer_chase.hpp"

namespace lruleak::channel {

/** Which protocol of the paper is in use. */
enum class LruAlgorithm
{
    Alg1Shared,   //!< Algorithm 1: shared `line 0`
    Alg2Disjoint, //!< Algorithm 2: disjoint address spaces
};

/** Thread ids used by channel programs throughout the library. */
constexpr sim::ThreadId kSenderThread = 0;
constexpr sim::ThreadId kReceiverThread = 1;

/**
 * Concrete addresses for one channel instance.
 */
class ChannelLayout
{
  public:
    /**
     * @param l1 geometry of the attacked L1 (sets/ways/line size)
     * @param target_set the set carrying the channel
     * @param chase_set the set holding the receiver's chase chain
     * @param shared_same_vaddr when false, sender and receiver map the
     *        shared line at different virtual addresses (separate
     *        processes); relevant for the AMD utag model
     */
    explicit ChannelLayout(const sim::CacheConfig &l1 =
                               sim::CacheConfig::intelL1d(),
                           std::uint32_t target_set = 7,
                           std::uint32_t chase_set = 63,
                           bool shared_same_vaddr = true)
        : layout_(l1.line_size, l1.numSets()), ways_(l1.ways),
          target_set_(target_set), chase_set_(chase_set),
          shared_same_vaddr_(shared_same_vaddr)
    {}

    /** Associativity N of the attacked cache. */
    std::uint32_t ways() const { return ways_; }
    std::uint32_t targetSet() const { return target_set_; }
    std::uint32_t chaseSet() const { return chase_set_; }
    const sim::AddressLayout &layout() const { return layout_; }

    /**
     * The receiver's `line i`.
     * Algorithm 1: i = 0 is the shared line, i in [1, N] are private.
     * Algorithm 2: i in [0, N-1] are private.
     */
    sim::MemRef
    receiverLine(LruAlgorithm alg, std::uint32_t i) const
    {
        if (alg == LruAlgorithm::Alg1Shared && i == 0)
            return sharedLine(kReceiverThread);
        const sim::Addr a =
            sim::lineInSet(layout_, target_set_, i, kReceiverBase);
        return sim::MemRef{a, a, kReceiverThread, false};
    }

    /** Number of lines the receiver touches per iteration (init+decode). */
    std::uint32_t
    receiverLineCount(LruAlgorithm alg) const
    {
        return alg == LruAlgorithm::Alg1Shared ? ways_ + 1 : ways_;
    }

    /** The line the sender touches to encode a 1. */
    sim::MemRef
    senderLine(LruAlgorithm alg) const
    {
        if (alg == LruAlgorithm::Alg1Shared)
            return sharedLine(kSenderThread);
        // Algorithm 2: the sender's own `line N` in the target set.
        const sim::Addr a =
            sim::lineInSet(layout_, target_set_, 0, kSenderBase);
        return sim::MemRef{a, a, kSenderThread, false};
    }

    /**
     * The receiver-local chain elements (in the chase set), as many as
     * the paper's pointer chase has (MeasurementModel::kChainLength).
     */
    std::vector<sim::MemRef>
    chaseRefs() const
    {
        std::vector<sim::MemRef> refs;
        refs.reserve(timing::MeasurementModel::kChainLength);
        for (std::uint32_t i = 0; i < timing::MeasurementModel::kChainLength;
             ++i) {
            const sim::Addr a =
                sim::lineInSet(layout_, chase_set_, i, kChaseBase);
            refs.push_back(sim::MemRef{a, a, kReceiverThread, false});
        }
        return refs;
    }

    /** The shared `line 0` as seen by @p thread. */
    sim::MemRef
    sharedLine(sim::ThreadId thread) const
    {
        const sim::Addr paddr =
            sim::lineInSet(layout_, target_set_, 0, kSharedBase);
        sim::Addr vaddr = paddr;
        if (!shared_same_vaddr_ && thread == kSenderThread) {
            // A different page-aligned mapping: same page-offset bits
            // (hence same VIPT set), different linear address (hence a
            // different AMD utag).
            vaddr = paddr + kSenderAliasOffset;
        }
        return sim::MemRef{vaddr, paddr, thread, false};
    }

    // Address-space bases; far enough apart that tags never collide.
    static constexpr sim::Addr kReceiverBase = 0x1000'0000'0000ULL;
    static constexpr sim::Addr kSenderBase = 0x2000'0000'0000ULL;
    static constexpr sim::Addr kSharedBase = 0x3000'0000'0000ULL;
    static constexpr sim::Addr kChaseBase = 0x4000'0000'0000ULL;
    static constexpr sim::Addr kSenderAliasOffset = 0x0550'0000'0000ULL;

  private:
    sim::AddressLayout layout_;
    std::uint32_t ways_;
    std::uint32_t target_set_;
    std::uint32_t chase_set_;
    bool shared_same_vaddr_;
};

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_LAYOUT_HPP
