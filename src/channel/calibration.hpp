/**
 * @file
 * One place for every channel decode threshold.
 *
 * Each channel design times one access (or one probe walk) and decides
 * "did the sender act?" by comparing the readout against a threshold
 * that separates two hit levels.  Before the Session refactor those
 * thresholds were derived in four different files (the covert-channel
 * runner, the cross-core runner, the Prime+Probe receiver and the
 * Flush+Reload tests); this module derives all of them from the
 * timing::Uarch and the channel kind:
 *
 *  - which cache level carries the channel (the private L1 for the
 *    SMT/time-sliced settings, the shared inclusive LLC for the
 *    cross-core ones) decides the latency pair being separated;
 *  - the LRU and Flush+Reload channels time a single chased access, so
 *    their threshold is MeasurementModel::chaseThresholdBetween over
 *    that pair;
 *  - Prime+Probe times the whole N-line probe walk, so its threshold is
 *    "all N served at the fast level, plus half the slow-fast delta"
 *    (the historical probe formula, kept to the integer);
 *  - the polarity (does a 1 bit read as a *fast* or a *slow* sample)
 *    is channel-intrinsic: Algorithm 1 and Flush+Reload signal 1 with
 *    a hit, Algorithm 2 and Prime+Probe signal 1 with an eviction.
 */

#ifndef LRULEAK_CHANNEL_CALIBRATION_HPP
#define LRULEAK_CHANNEL_CALIBRATION_HPP

#include <cstdint>

#include "channel/channel_factory.hpp"
#include "timing/pointer_chase.hpp"

namespace lruleak::channel {

/** Which cache level carries the channel state. */
enum class Carrier
{
    L1,  //!< the private L1D (SMT and time-sliced sharing)
    Llc, //!< the shared inclusive LLC (cross-core sharing)
};

/** Everything the decoder needs to turn samples into bits. */
struct Calibration
{
    std::uint32_t threshold = 0;  //!< per-sample hit/miss decision point
    bool invert = false;          //!< true: a 1 bit reads as a slow sample
    sim::HitLevel fast = sim::HitLevel::L1; //!< level when line survived
    sim::HitLevel slow = sim::HitLevel::L2; //!< level when line was evicted
};

/**
 * The latency pair channel @p id separates on @p carrier, independent
 * of the CPU model (levels, not cycles).  Also drives the capability
 * text `lruleak describe <channel>` prints.
 */
Calibration carrierLevels(ChannelId id, Carrier carrier);

/**
 * Full calibration of channel @p id on @p carrier for one CPU model.
 *
 * @param ways associativity of the carrier set (the ChannelLayout's
 *             ways(); only Prime+Probe's walk length depends on it)
 *
 * The chase readouts assume the paper's 7-element chain
 * (MeasurementModel::kChainLength, footnote 3).
 */
Calibration calibrationFor(const timing::Uarch &uarch, ChannelId id,
                           Carrier carrier, std::uint32_t ways);

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_CALIBRATION_HPP
