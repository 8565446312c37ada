/**
 * @file
 * Name-addressable channel construction.
 *
 * The paper compares five receiver designs over the same sender model:
 * the two LRU channels (Algorithms 1 and 2), the two Flush+Reload
 * baselines and Prime+Probe.  ChannelId enumerates them once for the
 * whole codebase; channelIdFromName() makes them selectable from CLI
 * parameters ("lru-alg1", "fr-mem", "prime-probe", ...); channelCaps()
 * records what differs per design.  channel::Session builds the
 * matching sender and receiver programs.
 */

#ifndef LRULEAK_CHANNEL_CHANNEL_FACTORY_HPP
#define LRULEAK_CHANNEL_CHANNEL_FACTORY_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "channel/layout.hpp"

namespace lruleak::channel {

/** Every channel design the repo can drive end to end. */
enum class ChannelId
{
    FrMem,      //!< Flush+Reload, line flushed to memory
    FrL1,       //!< Flush+Reload within L1 (evict to L2)
    LruAlg1,    //!< LRU channel, shared memory (paper Algorithm 1)
    LruAlg2,    //!< LRU channel, no shared memory (paper Algorithm 2)
    PrimeProbe, //!< Prime+Probe baseline (Osvik et al.)
    XCoreLruAlg2, //!< Algorithm 2 over the shared inclusive LLC
                  //!< (cross-core; SharingMode::CrossCore sessions)
    DirtyEvict,   //!< dirty-state channel: write-back latency of the
                  //!< receiver's refill distinguishes whether the evicted
                  //!< sender line was dirty (Cui et al.)
    FlushDirty,   //!< dirty-state channel: clflush of a modified shared
                  //!< line stalls on the write-back, so timed flushes
                  //!< decode the dirty bit (Flushgeist)
};

/** Stable CLI token: "fr-mem", "fr-l1", "lru-alg1", ... */
std::string_view channelIdToken(ChannelId id);

/** Paper-style display name: "F+R (mem)", "L1 LRU Alg.1", ... */
std::string channelDisplayName(ChannelId id);

/**
 * Parse a channel name (case-insensitive; accepts the token, common
 * aliases like "flush-reload-mem" / "pp", and '_' for '-').  Throws
 * std::invalid_argument listing the valid tokens.
 */
ChannelId channelIdFromName(std::string_view name);

/** All ids, in ChannelId declaration order. */
const std::vector<ChannelId> &allChannelIds();

/** The sender algorithm a channel pairs with (Alg 2 when no sharing). */
LruAlgorithm senderAlgorithmFor(ChannelId id);

/**
 * What a channel design needs from — and how it behaves on — the
 * topology it runs over.  Since the Session refactor every ChannelId
 * constructs against any ChannelLayout and runs under any sharing mode;
 * the capabilities record the *properties* that differ per design, so
 * `lruleak describe <channel>` and channel::Session derive behaviour
 * from data instead of per-channel branches.
 */
struct ChannelCaps
{
    LruAlgorithm sender_alg;  //!< protocol the sender modulates with
    bool shared_memory;       //!< parties need one shared physical line
    bool uses_flush;          //!< receiver issues clflush
    bool invert;              //!< decode polarity: 1 bit = slow sample
    bool llc_geometry;        //!< layout natively built from the LLC
                              //!< geometry in every sharing mode
    bool dirty_state;         //!< the modulated state is the line's dirty
                              //!< bit, not its presence: the sender uses
                              //!< write-polarity encoding and the channel
                              //!< needs a write-back cache to exist at all
};

/** Capability record of one channel design. */
const ChannelCaps &channelCaps(ChannelId id);

/**
 * Default receiver init depth (the paper's d) for an N-way carrier set:
 * Algorithm 1 primes the whole set (d = N), Algorithm 2 half of it
 * (d = N/2, the paper's d = 4 at N = 8), the cross-core Algorithm 2
 * three quarters (d = 12 at the LLC's N = 16).  Channels without an
 * init phase return 0.
 */
std::uint32_t defaultInitDepth(ChannelId id, std::uint32_t ways);

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_CHANNEL_FACTORY_HPP
