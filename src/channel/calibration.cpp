/**
 * @file
 * Threshold derivation.
 */

#include "channel/calibration.hpp"

#include <vector>

namespace lruleak::channel {

namespace {

/**
 * Memo key for calibrationFor: exactly the numeric inputs the threshold
 * formulas consume, never the uarch's *name* — tests routinely build
 * modified CPU models that keep the stock label, and two uarchs that
 * agree on these numbers provably produce the same Calibration.
 */
struct CalKey
{
    ChannelId id;
    Carrier carrier;
    std::uint32_t ways;
    std::uint32_t l1_latency;
    std::uint32_t l2_latency;
    std::uint32_t llc_latency;
    std::uint32_t mem_latency;
    std::uint32_t tsc_granularity;
    std::uint32_t chase_overhead;
    std::uint32_t single_overhead;
    std::uint32_t serialize_floor;
    std::uint32_t wb_latency;

    bool operator==(const CalKey &) const = default;
};

/** Derivation without the memo (the pre-cache body of calibrationFor). */
Calibration
deriveCalibration(const timing::Uarch &uarch, ChannelId id,
                  Carrier carrier, std::uint32_t ways);

} // namespace

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
    // Memoise per distinct numeric-input tuple.  Sessions re-calibrate
    // every run (per bit, in the per-bit experiment loops), always with
    // a handful of distinct tuples, so a small linear-scan cache wins
    // over any hashing.  thread_local keeps it data-race-free.
    const CalKey key{id,
                     carrier,
                     ways,
                     uarch.l1_latency,
                     uarch.l2_latency,
                     uarch.llc_latency,
                     uarch.mem_latency,
                     uarch.tsc_granularity,
                     uarch.chase_overhead,
                     uarch.single_overhead,
                     uarch.serialize_floor,
                     uarch.wb_latency};
    struct MemoEntry
    {
        CalKey key;
        Calibration cal;
    };
    static thread_local std::vector<MemoEntry> memo;
    for (const MemoEntry &e : memo) {
        if (e.key == key)
            return e.cal;
    }
    const Calibration cal =
        deriveCalibration(uarch, id, carrier, ways);
    memo.push_back(MemoEntry{key, cal});
    return cal;
}

namespace {

Calibration
deriveCalibration(const timing::Uarch &uarch, ChannelId id,
                  Carrier carrier, std::uint32_t ways)
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

} // namespace

} // namespace lruleak::channel
