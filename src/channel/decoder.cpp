/**
 * @file
 * Decoder implementations.
 */

#include "channel/decoder.hpp"

#include <algorithm>
#include <cmath>

namespace lruleak::channel {

Bits
thresholdSamples(const std::vector<Sample> &samples, std::uint32_t threshold,
                 bool invert)
{
    Bits bits;
    bits.reserve(samples.size());
    for (const auto &s : samples) {
        const bool hit = s.latency <= threshold;
        const bool one = invert ? !hit : hit;
        bits.push_back(one ? 1 : 0);
    }
    return bits;
}

Bits
windowSymbols(const std::vector<Sample> &samples, std::uint32_t threshold,
              bool invert, std::uint64_t t0, std::uint64_t ts,
              std::size_t nbits)
{
    if (ts == 0 || nbits == 0)
        return {};

    std::vector<std::uint32_t> ones(nbits, 0);
    std::vector<std::uint32_t> count(nbits, 0);
    for (const auto &s : samples) {
        if (s.tsc < t0)
            continue;
        const std::uint64_t k = (s.tsc - t0) / ts;
        if (k >= nbits)
            continue;
        const bool hit = s.latency <= threshold;
        const bool one = invert ? !hit : hit;
        ones[k] += one ? 1 : 0;
        ++count[k];
    }

    Bits out;
    out.reserve(nbits);
    for (std::size_t k = 0; k < nbits; ++k) {
        if (count[k] == 0)
            out.push_back(kErasureSymbol);
        else
            out.push_back(2 * ones[k] >= count[k] ? 1 : 0);
    }
    return out;
}

Bits
windowDecode(const std::vector<Sample> &samples, std::uint32_t threshold,
             bool invert, std::uint64_t t0, std::uint64_t ts,
             std::size_t nbits)
{
    Bits out = windowSymbols(samples, threshold, invert, t0, ts, nbits);
    std::erase(out, kErasureSymbol);
    return out;
}

std::vector<double>
movingAverage(const std::vector<double> &series, std::size_t window)
{
    if (window == 0 || series.empty())
        return series;
    std::vector<double> out(series.size());
    const std::size_t half = window / 2;
    // Prefix sums keep this O(n).
    std::vector<double> prefix(series.size() + 1, 0.0);
    for (std::size_t i = 0; i < series.size(); ++i)
        prefix[i + 1] = prefix[i] + series[i];
    for (std::size_t i = 0; i < series.size(); ++i) {
        const std::size_t lo = i >= half ? i - half : 0;
        const std::size_t hi = std::min(series.size(), i + window - half);
        out[i] = (prefix[hi] - prefix[lo]) /
                 static_cast<double>(hi - lo);
    }
    return out;
}

std::size_t
bestAlternatingPeriod(const std::vector<double> &series,
                      std::size_t min_period, std::size_t max_period)
{
    if (series.empty() || min_period == 0)
        return min_period;
    std::size_t best_p = min_period;
    double best_score = -1.0;
    for (std::size_t p = min_period; p <= max_period; ++p) {
        // Fold at 2p: positions [0,p) carry one symbol, [p,2p) the other.
        double sum_a = 0.0, sum_b = 0.0;
        std::size_t n_a = 0, n_b = 0;
        for (std::size_t i = 0; i < series.size(); ++i) {
            if ((i / p) % 2 == 0) {
                sum_a += series[i];
                ++n_a;
            } else {
                sum_b += series[i];
                ++n_b;
            }
        }
        if (n_a == 0 || n_b == 0)
            continue;
        const double score = std::abs(sum_a / static_cast<double>(n_a) -
                                      sum_b / static_cast<double>(n_b));
        if (score > best_score) {
            best_score = score;
            best_p = p;
        }
    }
    return best_p;
}

std::vector<Sample>
trimSaturatedRuns(const std::vector<Sample> &samples,
                  std::uint32_t threshold, bool invert, std::size_t max_run)
{
    if (samples.size() <= max_run || max_run == 0)
        return samples;

    const Bits raw = thresholdSamples(samples, threshold, invert);
    std::vector<bool> keep(samples.size(), true);

    std::size_t run_start = 0;
    for (std::size_t i = 1; i <= raw.size(); ++i) {
        if (i == raw.size() || raw[i] != raw[run_start]) {
            if (i - run_start > max_run) {
                for (std::size_t j = run_start; j < i; ++j)
                    keep[j] = false;
            }
            run_start = i;
        }
    }

    std::vector<Sample> out;
    out.reserve(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (keep[i])
            out.push_back(samples[i]);
    }
    return out;
}

std::vector<double>
latencies(const std::vector<Sample> &samples)
{
    std::vector<double> out;
    out.reserve(samples.size());
    for (const auto &s : samples)
        out.push_back(static_cast<double>(s.latency));
    return out;
}

} // namespace lruleak::channel
