/**
 * @file
 * Channel name table and capabilities.
 */

#include "channel/channel_factory.hpp"

#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace lruleak::channel {

std::string_view
channelIdToken(ChannelId id)
{
    switch (id) {
      case ChannelId::FrMem:      return "fr-mem";
      case ChannelId::FrL1:       return "fr-l1";
      case ChannelId::LruAlg1:    return "lru-alg1";
      case ChannelId::LruAlg2:    return "lru-alg2";
      case ChannelId::PrimeProbe: return "prime-probe";
      case ChannelId::XCoreLruAlg2: return "xcore-lru-alg2";
      case ChannelId::DirtyEvict:   return "dirty-evict";
      case ChannelId::FlushDirty:   return "flush-dirty";
    }
    return "unknown";
}

std::string
channelDisplayName(ChannelId id)
{
    switch (id) {
      case ChannelId::FrMem:      return "F+R (mem)";
      case ChannelId::FrL1:       return "F+R (L1)";
      case ChannelId::LruAlg1:    return "L1 LRU Alg.1";
      case ChannelId::LruAlg2:    return "L1 LRU Alg.2";
      case ChannelId::PrimeProbe: return "Prime+Probe";
      case ChannelId::XCoreLruAlg2: return "LLC LRU Alg.2 (x-core)";
      case ChannelId::DirtyEvict:   return "Dirty-evict (WB)";
      case ChannelId::FlushDirty:   return "Flush-dirty (clflush)";
    }
    return "unknown";
}

ChannelId
channelIdFromName(std::string_view name)
{
    const std::string n = util::normalizeToken(name);
    for (ChannelId id : allChannelIds()) {
        if (n == channelIdToken(id))
            return id;
    }
    if (n == "flush-reload-mem" || n == "flush-reload")
        return ChannelId::FrMem;
    if (n == "flush-reload-l1")
        return ChannelId::FrL1;
    if (n == "alg1" || n == "lru1")
        return ChannelId::LruAlg1;
    if (n == "alg2" || n == "lru2")
        return ChannelId::LruAlg2;
    if (n == "pp" || n == "primeprobe")
        return ChannelId::PrimeProbe;
    if (n == "xcore" || n == "xcore-alg2" || n == "llc-alg2")
        return ChannelId::XCoreLruAlg2;
    if (n == "dirtyevict" || n == "cui" || n == "wb-evict")
        return ChannelId::DirtyEvict;
    if (n == "flushdirty" || n == "flushgeist" || n == "fd")
        return ChannelId::FlushDirty;

    std::ostringstream os;
    os << "unknown channel '" << name << "'; valid channels:";
    for (ChannelId id : allChannelIds())
        os << " " << channelIdToken(id);
    throw std::invalid_argument(os.str());
}

const std::vector<ChannelId> &
allChannelIds()
{
    static const std::vector<ChannelId> ids{
        ChannelId::FrMem, ChannelId::FrL1, ChannelId::LruAlg1,
        ChannelId::LruAlg2, ChannelId::PrimeProbe,
        ChannelId::XCoreLruAlg2, ChannelId::DirtyEvict,
        ChannelId::FlushDirty};
    return ids;
}

LruAlgorithm
senderAlgorithmFor(ChannelId id)
{
    return channelCaps(id).sender_alg;
}

const ChannelCaps &
channelCaps(ChannelId id)
{
    // {sender_alg, shared_memory, uses_flush, invert, llc_geometry,
    //  dirty_state}
    static const ChannelCaps kFrMem{LruAlgorithm::Alg1Shared, true, true,
                                    false, false, false};
    static const ChannelCaps kFrL1{LruAlgorithm::Alg1Shared, true, false,
                                   false, false, false};
    static const ChannelCaps kAlg1{LruAlgorithm::Alg1Shared, true, false,
                                   false, false, false};
    static const ChannelCaps kAlg2{LruAlgorithm::Alg2Disjoint, false,
                                   false, true, false, false};
    static const ChannelCaps kPp{LruAlgorithm::Alg2Disjoint, false, false,
                                 true, false, false};
    static const ChannelCaps kXCore{LruAlgorithm::Alg2Disjoint, false,
                                    false, true, true, false};
    // Dirty-evict needs no shared memory (the sender dirties its own
    // line); flush-dirty flushes the one shared line, like F+R.  Both
    // decode "1 = slow sample" (a write-back stall).
    static const ChannelCaps kDirtyEvict{LruAlgorithm::Alg2Disjoint,
                                         false, false, true, false, true};
    static const ChannelCaps kFlushDirty{LruAlgorithm::Alg1Shared, true,
                                         true, true, false, true};
    switch (id) {
      case ChannelId::FrMem:        return kFrMem;
      case ChannelId::FrL1:         return kFrL1;
      case ChannelId::LruAlg1:      return kAlg1;
      case ChannelId::LruAlg2:      return kAlg2;
      case ChannelId::PrimeProbe:   return kPp;
      case ChannelId::XCoreLruAlg2: return kXCore;
      case ChannelId::DirtyEvict:   return kDirtyEvict;
      case ChannelId::FlushDirty:   return kFlushDirty;
    }
    return kAlg1;
}

std::uint32_t
defaultInitDepth(ChannelId id, std::uint32_t ways)
{
    switch (id) {
      case ChannelId::LruAlg1:      return ways;
      case ChannelId::LruAlg2:      return ways / 2;
      case ChannelId::XCoreLruAlg2: return 3 * ways / 4;
      case ChannelId::FrMem:
      case ChannelId::FrL1:
      case ChannelId::PrimeProbe:
      case ChannelId::DirtyEvict:
      case ChannelId::FlushDirty:
        break;
    }
    return 0;
}

} // namespace lruleak::channel
