/**
 * @file
 * Name-addressable channel construction.
 *
 * The paper compares five receiver designs over the same sender model:
 * the two LRU channels (Algorithms 1 and 2), the two Flush+Reload
 * baselines and Prime+Probe.  ChannelId enumerates them once for the
 * whole codebase; channelIdFromName() makes them selectable from CLI
 * parameters ("lru-alg1", "fr-mem", "prime-probe", ...); ChannelPair
 * instantiates the matching sender/receiver ThreadPrograms over one
 * ChannelLayout so experiment code never dispatches on the kind again.
 */

#ifndef LRULEAK_CHANNEL_CHANNEL_FACTORY_HPP
#define LRULEAK_CHANNEL_CHANNEL_FACTORY_HPP

#include <memory>
#include <string>
#include <vector>

#include "channel/flush_reload.hpp"
#include "channel/lru_channel.hpp"
#include "channel/prime_probe.hpp"

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

/** Common knobs for a factory-built sender/receiver pair. */
struct ChannelPairConfig
{
    Bits message;                  //!< bits the sender transmits
    std::uint32_t repeats = 1;
    std::uint64_t ts = 6000;       //!< sender per-bit period (cycles)
    std::uint64_t tr = 600;        //!< receiver sampling period (cycles)
    std::uint32_t d = 0;           //!< LRU init depth; 0 = per-channel
                                   //!< default (see defaultInitDepth)
    std::uint64_t max_samples = 1000;
    std::uint32_t chain_len = 7;
    std::uint32_t encode_gap = 40;
    bool infinite = false;         //!< sender loops the message forever
    bool lock_line = false;        //!< PL cache: lock the sender's line
};

/**
 * One constructed sender/receiver pair, ready for any execution-engine
 * arbitration policy.  Owns both programs; samples() reaches through to
 * whichever receiver type was built.  The layout decides the carrier
 * geometry (L1 for the single-core channels, LLC for the cross-core
 * ones) — channel::Session picks it; see sessionLayoutFor.
 */
class ChannelPair
{
  public:
    ChannelPair(ChannelId id, const ChannelLayout &layout,
                const ChannelPairConfig &config);

    ChannelId id() const { return id_; }
    LruSender &sender() { return *sender_; }
    exec::ThreadProgram &receiver() { return *receiver_; }
    const std::vector<Sample> &samples() const { return *samples_; }

  private:
    ChannelId id_;
    std::unique_ptr<LruSender> sender_;
    std::unique_ptr<exec::ThreadProgram> receiver_;
    const std::vector<Sample> *samples_ = nullptr;
};

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_CHANNEL_FACTORY_HPP
