/**
 * @file
 * Test-only reference models of the six replacement policies.
 *
 * Each model is the textbook formulation, written independently of
 * sim::ReplState's packed, table-driven state machines: a recency list
 * for LRU, an explicit root-to-leaf walk over a bit vector for
 * Tree-PLRU, a literal step-by-step aging loop for SRRIP.  They favour
 * obviousness over speed; the randomized equivalence and differential
 * tests drive them in lockstep with ReplState and CacheSet.
 *
 * stateBits() uses ReplState's encoding, and toState() loads a model's
 * current state into the equivalent ReplState, so the two can be
 * compared byte for byte and started from the same mid-stream state.
 */

#ifndef LRULEAK_TESTS_REFERENCE_POLICIES_HPP
#define LRULEAK_TESTS_REFERENCE_POLICIES_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/random.hpp"
#include "sim/repl_state.hpp"

namespace lruleak::reference {

using sim::ReplState;

/** The interface every reference model implements. */
class Policy
{
  public:
    explicit Policy(std::uint32_t ways) : ways_(ways) {}
    virtual ~Policy() = default;
    Policy(const Policy &) = delete;
    Policy &operator=(const Policy &) = delete;

    virtual void touch(std::uint32_t way) = 0;
    virtual void onFill(std::uint32_t way) { touch(way); }
    virtual std::uint32_t victim() const = 0;
    virtual std::uint32_t selectVictim() { return victim(); }
    virtual void reset() = 0;
    virtual std::vector<std::uint8_t> stateBits() const = 0;
    virtual ReplState toState() const = 0;

  protected:
    std::uint32_t ways_;
};

/** Recency list, MRU first; the victim is the back of the list. */
class Lru : public Policy
{
  public:
    explicit Lru(std::uint32_t ways) : Policy(ways) { reset(); }

    void
    touch(std::uint32_t way) override
    {
        order_.erase(std::find(order_.begin(), order_.end(), way));
        order_.insert(order_.begin(), way);
    }
    std::uint32_t victim() const override { return order_.back(); }
    void
    reset() override
    {
        order_.resize(ways_);
        std::iota(order_.begin(), order_.end(), 0u); // way 0 is MRU
    }
    std::vector<std::uint8_t>
    stateBits() const override
    {
        return {order_.begin(), order_.end()};
    }
    ReplState
    toState() const override
    {
        sim::TrueLruState s(ways_);
        for (std::uint32_t pos = 0; pos < ways_; ++pos)
            s.age[order_[pos]] = static_cast<std::uint8_t>(pos);
        return ReplState(s);
    }

  private:
    std::vector<std::uint32_t> order_;
};

/**
 * Tree-PLRU over an implicit heap of N-1 node bits (children of node i
 * are 2i+1 and 2i+2).  Bit 0 sends the victim search left.  A touch
 * walks root to leaf and points every node away from the touched way.
 */
class TreePlru : public Policy
{
  public:
    explicit TreePlru(std::uint32_t ways) : Policy(ways)
    {
        if (ways < 2 || (ways & (ways - 1)) != 0)
            throw std::invalid_argument("TreePlru needs power-of-two ways");
        reset();
    }

    void
    touch(std::uint32_t way) override
    {
        std::uint32_t node = 0, lo = 0, hi = ways_;
        while (hi - lo > 1) {
            const std::uint32_t mid = (lo + hi) / 2;
            const bool right = way >= mid;
            bits_[node] = !right; // point at the other half
            node = 2 * node + (right ? 2 : 1);
            (right ? lo : hi) = mid;
        }
    }
    std::uint32_t
    victim() const override
    {
        std::uint32_t node = 0, lo = 0, hi = ways_;
        while (hi - lo > 1) {
            const std::uint32_t mid = (lo + hi) / 2;
            const bool right = bits_[node];
            node = 2 * node + (right ? 2 : 1);
            (right ? lo : hi) = mid;
        }
        return lo;
    }
    void reset() override { bits_.assign(ways_ - 1, false); }
    std::vector<std::uint8_t>
    stateBits() const override
    {
        return {bits_.begin(), bits_.end()};
    }
    ReplState
    toState() const override
    {
        sim::TreePlruState s(ways_);
        for (std::uint32_t i = 0; i + 1 < ways_; ++i)
            s.setNodeBit(i, bits_[i]);
        return ReplState(s);
    }

  private:
    std::vector<bool> bits_;
};

/**
 * Bit-PLRU: one MRU bit per way, set on a hit; saturation clears all
 * bits but the accessed one.  Fills leave the bit clear.  The victim is
 * the lowest way with a clear bit.
 */
class BitPlru : public Policy
{
  public:
    explicit BitPlru(std::uint32_t ways) : Policy(ways) { reset(); }

    void
    touch(std::uint32_t way) override
    {
        mru_[way] = true;
        if (std::find(mru_.begin(), mru_.end(), false) == mru_.end()) {
            reset();
            mru_[way] = true;
        }
    }
    void onFill(std::uint32_t) override {}
    std::uint32_t
    victim() const override
    {
        return static_cast<std::uint32_t>(
            std::find(mru_.begin(), mru_.end(), false) - mru_.begin());
    }
    void reset() override { mru_.assign(ways_, false); }
    std::vector<std::uint8_t>
    stateBits() const override
    {
        return {mru_.begin(), mru_.end()};
    }
    ReplState
    toState() const override
    {
        sim::BitPlruState s(ways_);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (mru_[w])
                s.mru |= std::uint64_t{1} << w;
        }
        return ReplState(s);
    }

  private:
    std::vector<bool> mru_;
};

/** Fill-order queue, oldest first; hits are invisible. */
class Fifo : public Policy
{
  public:
    explicit Fifo(std::uint32_t ways) : Policy(ways) { reset(); }

    void touch(std::uint32_t) override {}
    void
    onFill(std::uint32_t way) override
    {
        queue_.erase(std::find(queue_.begin(), queue_.end(), way));
        queue_.push_back(way);
    }
    std::uint32_t victim() const override { return queue_.front(); }
    void
    reset() override
    {
        queue_.resize(ways_);
        std::iota(queue_.begin(), queue_.end(), 0u);
    }
    std::vector<std::uint8_t>
    stateBits() const override
    {
        return {queue_.begin(), queue_.end()};
    }
    ReplState
    toState() const override
    {
        sim::FifoState s(ways_);
        std::copy(queue_.begin(), queue_.end(), s.order.begin());
        return ReplState(s);
    }

  private:
    std::vector<std::uint32_t> queue_;
};

/** Uniform victim from a private stream; victim() peeks a copy. */
class Random : public Policy
{
  public:
    Random(std::uint32_t ways, std::uint64_t seed)
        : Policy(ways), seed_(seed), rng_(seed)
    {}

    void touch(std::uint32_t) override {}
    std::uint32_t
    victim() const override
    {
        sim::Xoshiro256 peek = rng_;
        return static_cast<std::uint32_t>(peek.below(ways_));
    }
    std::uint32_t
    selectVictim() override
    {
        return static_cast<std::uint32_t>(rng_.below(ways_));
    }
    void reset() override { rng_ = sim::Xoshiro256(seed_); }
    std::vector<std::uint8_t> stateBits() const override { return {}; }
    ReplState
    toState() const override
    {
        sim::RandomState s(ways_, seed_);
        s.rng = rng_;
        return ReplState(s);
    }

  private:
    std::uint64_t seed_;
    sim::Xoshiro256 rng_;
};

/**
 * SRRIP-HP with 2-bit RRPVs: fill at 2, hit to 0.  Victim selection ages
 * every RRPV one step at a time until some way reaches 3 and takes the
 * lowest such way; victim() runs the same loop on a copy of the RRPVs.
 */
class Srrip : public Policy
{
  public:
    static constexpr std::uint8_t kMax = 3;
    static constexpr std::uint8_t kInsert = 2;

    explicit Srrip(std::uint32_t ways) : Policy(ways) { reset(); }

    void touch(std::uint32_t way) override { rrpv_[way] = 0; }
    void onFill(std::uint32_t way) override { rrpv_[way] = kInsert; }
    std::uint32_t
    victim() const override
    {
        std::vector<std::uint8_t> copy = rrpv_;
        return age(copy);
    }
    std::uint32_t selectVictim() override { return age(rrpv_); }
    void reset() override { rrpv_.assign(ways_, kMax); }
    std::vector<std::uint8_t> stateBits() const override { return rrpv_; }
    ReplState
    toState() const override
    {
        sim::SrripState s(ways_);
        std::copy(rrpv_.begin(), rrpv_.end(), s.rrpv.begin());
        return ReplState(s);
    }

  private:
    static std::uint32_t
    age(std::vector<std::uint8_t> &rrpv)
    {
        while (true) {
            const auto max = std::find(rrpv.begin(), rrpv.end(), kMax);
            if (max != rrpv.end())
                return static_cast<std::uint32_t>(max - rrpv.begin());
            for (auto &v : rrpv)
                ++v;
        }
    }

    std::vector<std::uint8_t> rrpv_;
};

/** Factory. @p seed feeds the Random policy's private stream. */
inline std::unique_ptr<Policy>
makePolicy(sim::ReplPolicyKind kind, std::uint32_t ways,
           std::uint64_t seed = 0)
{
    switch (kind) {
      case sim::ReplPolicyKind::TrueLru:
        return std::make_unique<Lru>(ways);
      case sim::ReplPolicyKind::TreePlru:
        return std::make_unique<TreePlru>(ways);
      case sim::ReplPolicyKind::BitPlru:
        return std::make_unique<BitPlru>(ways);
      case sim::ReplPolicyKind::Fifo:
        return std::make_unique<Fifo>(ways);
      case sim::ReplPolicyKind::Random:
        return std::make_unique<Random>(ways, seed);
      case sim::ReplPolicyKind::Srrip:
        return std::make_unique<Srrip>(ways);
    }
    throw std::invalid_argument("bad ReplPolicyKind");
}

} // namespace lruleak::reference

#endif // LRULEAK_TESTS_REFERENCE_POLICIES_HPP
