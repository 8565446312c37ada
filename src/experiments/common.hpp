/**
 * @file
 * Shared helpers for the experiment registrations: common ParamSpec
 * builders (seed, CPU model, channel lists) and small conversion
 * utilities used by many run() bodies.
 */

#ifndef LRULEAK_EXPERIMENTS_COMMON_HPP
#define LRULEAK_EXPERIMENTS_COMMON_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "channel/channel_factory.hpp"
#include "channel/decoder.hpp"
#include "core/experiment.hpp"
#include "timing/uarch.hpp"

namespace lruleak::experiments {

/** The standard RNG-seed parameter. */
inline core::ParamSpec
seedParam(std::int64_t def)
{
    return core::ParamSpec::integer("seed", def,
                                    "RNG seed for the measurement");
}

/**
 * CPU-model parameter over the paper's Table III machines.  A Str (not
 * Choice) spec so the aliases timing::uarchFromName documents
 * ("skylake", "zen", case-insensitive) work from the CLI; validation
 * happens in uarchFromParams.
 */
inline core::ParamSpec
uarchParam(const std::string &def)
{
    std::string valid;
    for (const auto &t : timing::uarchTokens()) {
        if (!valid.empty())
            valid += ", ";
        valid += t;
    }
    return core::ParamSpec::str("uarch", def,
                                "CPU model to simulate (" + valid +
                                    "; microarch aliases like skylake/"
                                    "zen also accepted)");
}

/** Parse the uarchParam value; throws ParamError on a bad name. */
timing::Uarch uarchFromParams(const core::ParamMap &params);

/** Comma-separated channel list parameter (see channelIdFromName). */
inline core::ParamSpec
channelsParam(const std::string &def)
{
    std::string valid;
    for (auto id : channel::allChannelIds()) {
        if (!valid.empty())
            valid += ", ";
        valid += channel::channelIdToken(id);
    }
    return core::ParamSpec::str("channels", def,
                                "comma-separated channel list (" + valid +
                                    ")");
}

/** Parse the channelsParam value; throws ParamError on a bad name. */
std::vector<channel::ChannelId> parseChannels(const std::string &list);

/** First @p limit sample latencies as a plottable series. */
std::vector<double> sampleLatencies(const std::vector<channel::Sample> &s,
                                    std::size_t limit);

/**
 * Fraction of 1s received in every (bit, Tr, d) cell of a time-sliced
 * Algorithm 1 grid (Figs. 6, 8, 15), in (bit, Tr, d) order: one Session
 * per cell, seeded @p seed + d, fanned out by core::runTrials over
 * @p threads workers (0 = the default); identical for any count.
 */
std::vector<double> timeslicedGrid(const timing::Uarch &uarch,
                                   std::span<const std::uint64_t> trs,
                                   std::span<const std::uint32_t> ds,
                                   std::uint64_t max_samples,
                                   std::uint64_t seed, unsigned threads = 0);

/** Run timeslicedGrid at the "measurements" and "seed" of @p params and
 *  emit one "Tr x d" table per sent bit. */
void timeslicedTables(core::ResultSink &sink, const core::ParamMap &params,
                      const timing::Uarch &uarch,
                      std::span<const std::uint64_t> trs,
                      std::span<const std::uint32_t> ds);

} // namespace lruleak::experiments

#endif // LRULEAK_EXPERIMENTS_COMMON_HPP
