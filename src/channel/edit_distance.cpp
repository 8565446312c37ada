/**
 * @file
 * Bit-parallel Levenshtein distance: Hyyrö's formulation of Myers'
 * algorithm, with the pattern split into 64-bit blocks.
 *
 * The shorter string is the pattern.  Its DP column is held as two bit
 * vectors, Pv and Mv (bit i set: D[i+1][j] - D[i][j] is +1 or -1), and
 * one text symbol advances the whole column with a handful of word
 * operations per block.  The horizontal delta carried out of a block's
 * top row is the next block's input; the top row of the matrix is
 * D[0][j] = j, so the first block always takes +1.  The score tracks
 * the bottom cell D[m][j].  This is the exact distance the two-row
 * Wagner-Fischer DP computes, 64 cells per word operation.
 */

#include "channel/edit_distance.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace lruleak::channel {

namespace {

using Word = std::uint64_t;
constexpr std::size_t kWordBits = 64;

} // namespace

std::size_t
editDistance(const Bits &a, const Bits &b)
{
    const Bits &pattern = a.size() <= b.size() ? a : b;
    const Bits &text = a.size() <= b.size() ? b : a;
    const std::size_t m = pattern.size();
    if (m == 0)
        return text.size();

    // One match mask per distinct pattern symbol, block-major; row 0 is
    // the all-zero mask of every symbol the pattern lacks.
    std::array<std::uint16_t, 256> row_of{};
    std::size_t rows = 1;
    for (const std::uint8_t c : pattern) {
        if (row_of[c] == 0)
            row_of[c] = static_cast<std::uint16_t>(rows++);
    }
    const std::size_t blocks = (m + kWordBits - 1) / kWordBits;
    std::vector<Word> peq(rows * blocks, 0);
    for (std::size_t i = 0; i < m; ++i)
        peq[row_of[pattern[i]] * blocks + i / kWordBits] |=
            Word{1} << (i % kWordBits);

    std::vector<Word> pv(blocks, ~Word{0});
    std::vector<Word> mv(blocks, 0);
    const unsigned last_bit = static_cast<unsigned>((m - 1) % kWordBits);
    std::size_t score = m;
    for (const std::uint8_t c : text) {
        const Word *const eq_row = &peq[row_of[c] * blocks];
        // Horizontal delta entering the block's top row: +1, 0 or -1.
        Word hin_pos = 1;
        Word hin_neg = 0;
        for (std::size_t k = 0; k < blocks; ++k) {
            const Word eq = eq_row[k] | hin_neg;
            const Word xv = eq_row[k] | mv[k];
            const Word xh = (((eq & pv[k]) + pv[k]) ^ pv[k]) | eq;
            Word ph = mv[k] | ~(xh | pv[k]);
            Word mh = pv[k] & xh;
            if (k + 1 == blocks) {
                score += (ph >> last_bit) & 1;
                score -= (mh >> last_bit) & 1;
            }
            const Word hout_pos = ph >> (kWordBits - 1);
            const Word hout_neg = mh >> (kWordBits - 1);
            ph = (ph << 1) | hin_pos;
            mh = (mh << 1) | hin_neg;
            pv[k] = mh | ~(xv | ph);
            mv[k] = ph & xv;
            hin_pos = hout_pos;
            hin_neg = hout_neg;
        }
    }
    return score;
}

double
editErrorRate(const Bits &sent, const Bits &received)
{
    if (sent.empty())
        return 0.0;
    return static_cast<double>(editDistance(sent, received)) /
           static_cast<double>(sent.size());
}

} // namespace lruleak::channel
