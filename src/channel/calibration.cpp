/**
 * @file
 * Threshold derivation.
 */

#include "channel/calibration.hpp"

namespace lruleak::channel {

Calibration
carrierLevels(ChannelId id, Carrier carrier)
{
    Calibration cal;
    cal.invert = channelCaps(id).invert;

    // The dirty-state readouts are carrier-independent: flush-dirty
    // times the flush itself, dirty-evict times a private L1 hit with
    // the walk's write-back stalls folded in.  Their levels are the
    // same for any carrier (and nominal — the slow case is a write-back
    // stall, not a slow-level fill — but `describe` still shows which
    // pair the readout straddles).
    if (id == ChannelId::DirtyEvict || id == ChannelId::FlushDirty) {
        cal.fast = sim::HitLevel::L1;
        cal.slow = sim::HitLevel::Memory;
        return cal;
    }

    if (carrier == Carrier::Llc) {
        // At LLC scale every channel decodes "line survived in the
        // shared LLC" (~LLC hit) against "line was evicted and, under
        // inclusion, back-invalidated" (a full memory miss).
        cal.fast = sim::HitLevel::LLC;
        cal.slow = sim::HitLevel::Memory;
        return cal;
    }

    switch (id) {
      case ChannelId::FrMem:
        // clflush pushes the shared line all the way to memory, so the
        // reload separates an L1 hit from a full memory miss.
        cal.fast = sim::HitLevel::L1;
        cal.slow = sim::HitLevel::Memory;
        break;
      case ChannelId::FrL1:
      case ChannelId::LruAlg1:
      case ChannelId::LruAlg2:
      case ChannelId::PrimeProbe:
      case ChannelId::XCoreLruAlg2:
        // The L1-resident designs all separate "served from L1" from
        // "evicted to L2" (the paper's Fig. 3/5 margin).
        cal.fast = sim::HitLevel::L1;
        cal.slow = sim::HitLevel::L2;
        break;
      case ChannelId::DirtyEvict:
      case ChannelId::FlushDirty:
        break; // handled above
    }
    return cal;
}

Calibration
calibrationFor(const timing::Uarch &uarch, ChannelId id, Carrier carrier,
               std::uint32_t ways)
{
    Calibration cal = carrierLevels(id, carrier);
    const timing::MeasurementModel model(uarch);

    if (id == ChannelId::PrimeProbe) {
        // Prime+Probe times the whole N-access probe walk: N fast-level
        // hits plus half the slow-fast delta, in the integer arithmetic
        // the historical probe formula has always used.
        const std::uint32_t fast = uarch.latency(cal.fast);
        const std::uint32_t slow = uarch.latency(cal.slow);
        cal.threshold =
            uarch.chase_overhead + ways * fast + (slow - fast) / 2;
        return cal;
    }

    // Half-granule recentering for the floor quantization, as in
    // MeasurementModel::chaseThresholdBetween.
    const double bias = (uarch.tsc_granularity - 1) / 2.0;

    if (id == ChannelId::DirtyEvict) {
        // The eviction walk is untimed; the readout is a refetched
        // private line — an L1 hit for every carrier — plus the
        // iteration's write-back stalls.  A clean iteration reads the
        // L1 floor, a dirty one reads one write-back above it, so the
        // threshold sits half a write-back over the floor.
        const double clean =
            uarch.chase_overhead + uarch.latency(sim::HitLevel::L1);
        cal.threshold = static_cast<std::uint32_t>(
            clean + uarch.wb_latency / 2.0 - bias);
        return cal;
    }

    if (id == ChannelId::FlushDirty) {
        // Timed clflush: the clean readout is the serialized flush
        // floor; a dirty line adds one write-back.  Carrier-independent
        // (no cache-level latency is involved at all).
        const double clean = uarch.single_overhead + uarch.serialize_floor;
        cal.threshold = static_cast<std::uint32_t>(
            clean + uarch.wb_latency / 2.0 - bias);
        return cal;
    }

    cal.threshold = model.chaseThresholdBetween(cal.fast, cal.slow);
    return cal;
}

} // namespace lruleak::channel
