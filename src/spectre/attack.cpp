/**
 * @file
 * Spectre attack implementation.
 */

#include "spectre/attack.hpp"

#include <algorithm>
#include <array>

#include "channel/layout.hpp"
#include "sim/cache_config.hpp"

namespace lruleak::spectre {

namespace {

/** Attacker-owned line i (1-based tags) of a given L1 set. */
sim::MemRef
attackerLine(const sim::AddressLayout &layout, std::uint32_t set,
             std::uint32_t i)
{
    const sim::Addr a = sim::lineInSet(layout, set, i,
                                       channel::ChannelLayout::kReceiverBase);
    return sim::MemRef{a, a, kAttackerThread, false};
}

/** The shared array2 probe line of symbol v. */
sim::MemRef
symbolLine(std::uint8_t v)
{
    const sim::Addr a = SpectreVictim::array2Line(v);
    return sim::MemRef{a, a, kAttackerThread, false};
}

/** L1 set that symbol v's array2 line maps to. */
std::uint32_t
symbolSet(const sim::AddressLayout &layout, std::uint8_t v)
{
    return layout.setIndex(SpectreVictim::array2Line(v));
}

/** Per-attack working state. */
class AttackContext
{
  public:
    explicit AttackContext(const SpectreAttackConfig &config)
        : config_(config), rng_(config.seed),
          hierarchy_(makeHierarchy(config)),
          core_(hierarchy_, config.uarch, config.spec),
          model_(config.uarch),
          layout_(sim::CacheConfig::intelL1d().line_size,
                  sim::CacheConfig::intelL1d().numSets())
    {
        // The chase chain lives in set 0 (symbol lines start at set 1).
        for (std::uint32_t i = 0; i < 7; ++i) {
            const sim::Addr a = sim::lineInSet(
                layout_, /*set=*/0, i, channel::ChannelLayout::kChaseBase);
            chase_.push_back(sim::MemRef{a, a, kAttackerThread, false});
        }
    }

    static sim::HierarchyConfig
    makeHierarchy(const SpectreAttackConfig &config)
    {
        sim::HierarchyConfig h;
        h.l1_way_predictor = config.uarch.way_predictor;
        h.enable_prefetcher = config.enable_prefetcher;
        return h;
    }

    /** Timed load of @p ref through the pointer-chase primitive. */
    std::uint32_t
    measure(const sim::MemRef &ref)
    {
        hierarchy_.accessBatch(chase_);
        const auto level = hierarchy_.access(ref).level;
        return model_.chase(
            std::vector<sim::HitLevel>(chase_.size(), sim::HitLevel::L1),
            level, rng_);
    }

    /** Candidate symbols in scan order (fresh shuffle per round). */
    std::vector<std::uint8_t>
    symbolOrder(std::uint32_t nsymbols)
    {
        std::vector<std::uint8_t> order;
        for (std::uint32_t v = 0; v < nsymbols; ++v) {
            // Symbols aliasing the chase set (set 0) are unusable.
            if (symbolSet(layout_, static_cast<std::uint8_t>(v)) != 0)
                order.push_back(static_cast<std::uint8_t>(v));
        }
        if (config_.random_probe_order) {
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng_.below(i)]);
        }
        return order;
    }

    void
    train(const SpectreVictim &victim, GadgetPart part)
    {
        for (std::uint32_t t = 0; t < config_.train_calls; ++t) {
            core_.callVictim(victim, /*x=*/0, part);
            ++victim_calls_;
        }
    }

    /** One scored round; adds hits into @p scores (indexed by symbol). */
    void
    round(const SpectreVictim &victim, std::size_t byte_index,
          GadgetPart part, std::vector<std::uint32_t> &scores)
    {
        const auto order = symbolOrder(
            part == GadgetPart::LowSixBits ? 64 : 4);
        train(victim, part);

        // The victim uses its secret in its normal (architectural)
        // operation, so the secret line is warm when the transient load
        // dereferences it — as in the Spectre v1 sample code.
        const sim::Addr s = SpectreVictim::kArray1 +
            SpectreVictim::kSecretOffset + byte_index;
        hierarchy_.access(sim::MemRef{s, s, kVictimThread, false});

        // ---- Initialization phase over every probed set.
        for (std::uint8_t v : order)
            initSet(v);

        // ---- One transient victim call: the encode.
        core_.callVictim(victim, SpectreVictim::maliciousX(byte_index),
                         part);
        ++victim_calls_;

        // ---- Decode phase per set.
        for (std::uint8_t v : order) {
            if (decodeSet(v))
                ++scores[v];
        }
    }

    std::uint64_t victimCalls() const { return victim_calls_; }
    sim::CacheHierarchy &hierarchy() { return hierarchy_; }
    const timing::MeasurementModel &model() const { return model_; }

  private:
    void
    initSet(std::uint8_t v)
    {
        const std::uint32_t set = symbolSet(layout_, v);
        // The init walks are straight-line access sequences: build the
        // whole walk and replay it through the hierarchy batch API.
        batch_.clear();
        switch (config_.disclosure) {
          case Disclosure::FlushReloadMem:
            hierarchy_.flush(symbolLine(v));
            return;
          case Disclosure::FlushReloadL1:
            // Evict the symbol line from L1 with 8 attacker lines.
            for (std::uint32_t i = 1; i <= layout_ways(); ++i)
                batch_.push_back(attackerLine(layout_, set, i));
            break;
          case Disclosure::LruAlg1:
            // Algorithm 1 init: line 0 (shared array2 line) then the
            // attacker's lines 1..d-1.
            for (std::uint32_t i = 0; i < config_.d; ++i) {
                if (i == 0)
                    batch_.push_back(symbolLine(v));
                else
                    batch_.push_back(attackerLine(layout_, set, i));
            }
            break;
          case Disclosure::LruAlg2:
            // Algorithm 2 assumes the sender's line is cached before the
            // init phase ("line 8 (hit, if line 8 is in cache...)"), so
            // the transient encode is a hit — warm it, then init with
            // the attacker's lines 0..d-1 (tags 1..d).
            batch_.push_back(symbolLine(v));
            for (std::uint32_t i = 0; i < config_.d; ++i)
                batch_.push_back(attackerLine(layout_, set, i + 1));
            break;
        }
        hierarchy_.accessBatch(batch_);
    }

    /** @return true when the set shows "the victim touched this set". */
    bool
    decodeSet(std::uint8_t v)
    {
        const std::uint32_t set = symbolSet(layout_, v);
        switch (config_.disclosure) {
          case Disclosure::FlushReloadMem: {
            const std::uint32_t lat = measure(symbolLine(v));
            return lat <= frThreshold();
          }
          case Disclosure::FlushReloadL1: {
            const std::uint32_t lat = measure(symbolLine(v));
            return lat <= model_.chaseThreshold();
          }
          case Disclosure::LruAlg1: {
            // Decode: attacker lines d..N, then time line 0.
            batch_.clear();
            for (std::uint32_t i = config_.d; i <= layout_ways(); ++i)
                batch_.push_back(attackerLine(layout_, set, i));
            hierarchy_.accessBatch(batch_);
            const std::uint32_t lat = measure(symbolLine(v));
            return lat <= model_.chaseThreshold(); // hit => touched
          }
          case Disclosure::LruAlg2: {
            batch_.clear();
            for (std::uint32_t i = config_.d; i < layout_ways(); ++i)
                batch_.push_back(attackerLine(layout_, set, i + 1));
            hierarchy_.accessBatch(batch_);
            const std::uint32_t lat =
                measure(attackerLine(layout_, set, 1));
            return lat > model_.chaseThreshold(); // miss => touched
          }
        }
        return false;
    }

    /** Reload threshold for F+R(mem): separates cached from memory. */
    std::uint32_t
    frThreshold() const
    {
        const auto &u = config_.uarch;
        return u.chase_overhead + 7 * u.l1_latency +
               (u.llc_latency + u.mem_latency) / 2;
    }

    std::uint32_t
    layout_ways() const
    {
        return sim::CacheConfig::intelL1d().ways;
    }

    SpectreAttackConfig config_;
    sim::Xoshiro256 rng_;
    sim::CacheHierarchy hierarchy_;
    TransientCore core_;
    timing::MeasurementModel model_;
    sim::AddressLayout layout_;
    std::vector<sim::MemRef> chase_;
    std::vector<sim::MemRef> batch_; //!< reused init/decode walk buffer
    std::uint64_t victim_calls_ = 0;
};

/** argmax over scores; ties resolve to the lowest symbol. */
std::uint8_t
bestSymbol(const std::vector<std::uint32_t> &scores)
{
    std::uint8_t best = 0;
    std::uint32_t best_score = 0;
    for (std::size_t v = 0; v < scores.size(); ++v) {
        if (scores[v] > best_score) {
            best_score = scores[v];
            best = static_cast<std::uint8_t>(v);
        }
    }
    return best;
}

} // namespace

std::string
disclosureName(Disclosure d)
{
    switch (d) {
      case Disclosure::FlushReloadMem: return "F+R (mem)";
      case Disclosure::FlushReloadL1:  return "F+R (L1)";
      case Disclosure::LruAlg1:        return "L1 LRU Alg.1";
      case Disclosure::LruAlg2:        return "L1 LRU Alg.2";
    }
    return "unknown";
}

SpectreAttackResult
runSpectreAttack(const SpectreAttackConfig &config, const std::string &secret)
{
    SpectreVictim victim(secret);
    AttackContext ctx(config);

    std::string recovered;
    recovered.reserve(secret.size());

    for (std::size_t k = 0; k < secret.size(); ++k) {
        std::vector<std::uint32_t> low_scores(64, 0);
        std::vector<std::uint32_t> high_scores(4, 0);
        for (std::uint32_t r = 0; r < config.rounds; ++r) {
            ctx.round(victim, k, GadgetPart::LowSixBits, low_scores);
            ctx.round(victim, k, GadgetPart::HighTwoBits, high_scores);
        }
        const std::uint8_t low = bestSymbol(low_scores);
        const std::uint8_t high = bestSymbol(high_scores);
        recovered.push_back(static_cast<char>((high << 6) | low));
    }

    SpectreAttackResult res;
    res.secret = secret;
    res.recovered = recovered;
    res.victim_calls = ctx.victimCalls();

    std::size_t correct = 0;
    for (std::size_t k = 0; k < secret.size(); ++k)
        correct += secret[k] == recovered[k] ? 1 : 0;
    res.byte_accuracy = secret.empty()
        ? 1.0
        : static_cast<double>(correct) / static_cast<double>(secret.size());

    const auto &h = ctx.hierarchy();
    res.l1 = h.l1().counters().total();
    res.l2 = h.l2().counters().total();
    res.llc = h.llc().counters().total();
    return res;
}

std::uint64_t
minimumWorkingWindow(SpectreAttackConfig config, std::uint64_t lo,
                     std::uint64_t hi)
{
    // Binary search the smallest window that still recovers "K".
    const std::string probe_secret = "K";
    auto works = [&](std::uint64_t window) {
        config.spec.window = window;
        const auto res = runSpectreAttack(config, probe_secret);
        return res.byte_accuracy == 1.0;
    };
    if (!works(hi))
        return 0; // never works in range
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (works(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

} // namespace lruleak::spectre
