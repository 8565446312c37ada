/**
 * @file
 * Turning the receiver's latency samples back into bits.
 *
 * Hyper-threaded Intel traces are clean enough for a per-sample threshold
 * plus per-bit-window majority vote (Fig. 5).  AMD's coarse timestamps
 * need a moving average and a best-fit-period search (Fig. 7).  The
 * time-sliced experiments report the percentage of 1s (Fig. 6/8).
 */

#ifndef LRULEAK_CHANNEL_DECODER_HPP
#define LRULEAK_CHANNEL_DECODER_HPP

#include <cstdint>
#include <vector>

#include "channel/bitstring.hpp"
#include "channel/lru_channel.hpp"

namespace lruleak::channel {

/**
 * Classify each sample as 1 ("the sender touched the set") or 0.
 *
 * @param invert Algorithm 1 signals 1 with a *hit* of line 0 (latency
 *        below the threshold); Algorithm 2 signals 1 with a *miss*
 *        (latency above).  Pass invert=true for Algorithm 2.
 */
Bits thresholdSamples(const std::vector<Sample> &samples,
                      std::uint32_t threshold, bool invert);

/**
 * Output symbol of a bit window that received no samples.  The leakage
 * estimator scores a channel whose output alphabet is {0, 1, erasure}:
 * unlike windowDecode (which drops the window and lets edit distance
 * charge the loss), the aligned view must keep one output symbol per
 * sent bit.
 */
inline constexpr std::uint8_t kErasureSymbol = 2;

/**
 * Window the samples into sender bit periods and majority-vote each
 * window: exactly one output symbol per sent bit, in order — the
 * window's vote, or kErasureSymbol when it received no samples.  The
 * i-th entry pairs with the i-th sent bit, which is what an empirical
 * confusion matrix / mutual-information estimate needs.  Empty when
 * @p ts or @p nbits is 0.
 *
 * @param t0 TSC at which the sender started bit 0
 * @param ts sender bit period in cycles
 * @param nbits number of bits the sender intended to send
 */
Bits windowSymbols(const std::vector<Sample> &samples,
                   std::uint32_t threshold, bool invert, std::uint64_t t0,
                   std::uint64_t ts, std::size_t nbits);

/**
 * windowSymbols() with the erasures removed: windows that received no
 * samples are dropped (bit loss, which the edit-distance scoring then
 * charges).
 */
Bits windowDecode(const std::vector<Sample> &samples,
                  std::uint32_t threshold, bool invert, std::uint64_t t0,
                  std::uint64_t ts, std::size_t nbits);

/** Simple moving average of a series (window w, centered). */
std::vector<double> movingAverage(const std::vector<double> &series,
                                  std::size_t window);

/**
 * Find the per-bit sample period that best explains an alternating
 * 0/1/0/1 transmission: fold the series at each candidate period and
 * score the even/odd separation.  Returns the best period.
 * Used to analyse the AMD traces where the paper finds 97 and 85.
 */
std::size_t bestAlternatingPeriod(const std::vector<double> &series,
                                  std::size_t min_period,
                                  std::size_t max_period);

/**
 * The paper's run-length noise filter for Algorithm 2: stretches where
 * every observation saturates at 0 or 1 for longer than @p max_run
 * samples are external interference, not signal; they are trimmed out.
 */
std::vector<Sample> trimSaturatedRuns(const std::vector<Sample> &samples,
                                      std::uint32_t threshold, bool invert,
                                      std::size_t max_run);

/** Latency samples as doubles (for averaging/plotting helpers). */
std::vector<double> latencies(const std::vector<Sample> &samples);

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_DECODER_HPP
