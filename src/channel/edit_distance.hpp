/**
 * @file
 * Levenshtein edit distance (paper Section V-A, reference [40]).
 *
 * The channel has three error types — bit flips, insertions and losses —
 * so the paper scores a transmission by the Levenshtein distance between
 * the sent and received strings.
 */

#ifndef LRULEAK_CHANNEL_EDIT_DISTANCE_HPP
#define LRULEAK_CHANNEL_EDIT_DISTANCE_HPP

#include <cstddef>

#include "channel/bitstring.hpp"

namespace lruleak::channel {

/**
 * Levenshtein distance between two symbol strings: bits, or any byte
 * alphabet (such as windowSymbols' erasures).  Exact, computed
 * bit-parallel (Hyyrö's form of Myers' algorithm).
 */
std::size_t editDistance(const Bits &a, const Bits &b);

/**
 * Channel error rate: edit distance normalised by the sent length.
 * Returns 0 for an empty sent string.
 */
double editErrorRate(const Bits &sent, const Bits &received);

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_EDIT_DISTANCE_HPP
