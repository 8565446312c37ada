/**
 * @file
 * Ablation as a registered experiment: the other secure caches of
 * Section IX-B — DAWG-style way partitioning (partitions the Tree-PLRU
 * state: channel dead) versus the Random Fill cache (hits still update
 * the LRU state: channel alive), probed at the set level on the same
 * sim::Cache secure modes the channel Sessions run.
 */

#include "experiments/common.hpp"
#include "sim/cache.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::sim;

constexpr Addr kSenderBase = 0x1000'0000'0000ULL;
constexpr Addr kReceiverBase = 0x2000'0000'0000ULL;

/** Line @p i of @p set, accessed by hardware thread @p thread. */
MemRef
mkLine(const AddressLayout &layout, std::uint32_t set, std::uint32_t i,
       Addr base, ThreadId thread = 0)
{
    return MemRef::load(lineInSet(layout, set, i, base), thread);
}

/** An Intel L1D running secure-cache mode @p mode. */
Cache
secureL1(SecureMode mode, std::uint64_t seed = 0)
{
    CacheConfig config = CacheConfig::intelL1d();
    config.secure = mode;
    config.seed = seed;
    // A 16-line Random Fill window keeps every neighbour fill that lands
    // in a set on lines 0..7 of that set, so the probe below plants all
    // eight without them evicting each other.
    config.fill_window = 16;
    return Cache(config);
}

/**
 * One Algorithm 2 style probe against a DAWG L1 (sender on thread 0,
 * receiver on thread 1, each in its own partition): returns whether the
 * receiver's line 0 survived its decode phase.
 */
bool
dawgProbe(bool sender_touches)
{
    Cache cache = secureL1(SecureMode::Dawg);
    const AddressLayout &layout = cache.layout();
    const auto sender_line = mkLine(layout, 7, 0, kSenderBase);
    cache.access(sender_line);
    for (std::uint32_t i = 0; i < 4; ++i)
        cache.access(mkLine(layout, 7, i, kReceiverBase, 1));
    if (sender_touches)
        cache.access(sender_line);
    for (std::uint32_t i = 4; i < 8; ++i)
        cache.access(mkLine(layout, 7, i, kReceiverBase, 1));
    return cache.contains(mkLine(layout, 7, 0, kReceiverBase, 1));
}

/** Same probe against a Random Fill L1's replacement state. */
bool
randomFillStateDiffers(std::uint64_t seed)
{
    auto state = [seed](bool sender_touches) {
        Cache cache = secureL1(SecureMode::RandomFill, seed);
        const AddressLayout &layout = cache.layout();
        // Seed lines 0..7 of set 13 via neighbour fills.
        for (std::uint32_t i = 0; i < 8; ++i) {
            const auto want = mkLine(layout, 13, i, kSenderBase);
            for (int tries = 0; tries < 4096 && !cache.contains(want);
                 ++tries)
                cache.access(MemRef::load(want.vaddr +
                                          64 * ((tries % 16) + 1)));
        }
        for (std::uint32_t i = 0; i < 8; ++i)
            cache.access(mkLine(layout, 13, i, kSenderBase));
        if (sender_touches)
            cache.access(mkLine(layout, 13, 0, kSenderBase));
        return cache.cacheSet(13).repl();
    };
    return state(true) != state(false);
}

class AblationSecureCaches final : public Experiment
{
  public:
    std::string name() const override { return "ablation_secure_caches"; }

    std::string
    description() const override
    {
        return "Ablation: DAWG and Random Fill secure caches vs the LRU "
               "channel (Section IX-B)";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {seedParam(11)};
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        sink.note("=== Ablation: secure caches of Section IX-B vs the "
                  "LRU channel ===\n");

        Table table({"Design", "Sender's hit observable?", "Verdict"});

        const bool dawg_leaks = dawgProbe(true) != dawgProbe(false);
        table.addRow({"DAWG (ways + PLRU state partitioned)",
                      dawg_leaks ? "YES" : "no",
                      dawg_leaks ? "LEAKS" : "protected"});

        const bool rf_leaks =
            randomFillStateDiffers(params.getUint("seed"));
        table.addRow({"Random Fill cache (random miss fills)",
                      rf_leaks ? "YES (hits update LRU state)" : "no",
                      rf_leaks ? "LEAKS (paper Section IX-B)"
                               : "protected"});

        sink.table("", table);

        sink.note("\nPaper reference: \"In DAWG ... partition the cache "
                  "ways and the Tree-PLRU states ...\nWe are unaware of "
                  "any other designs that partition the LRU states.\"  "
                  "And for Random\nFill: \"on a cache hit, the "
                  "replacement state will be updated, and the LRU "
                  "channel\ncould still work.\"");
    }
};

LRULEAK_REGISTER_EXPERIMENT(AblationSecureCaches)

} // namespace

} // namespace lruleak::experiments
