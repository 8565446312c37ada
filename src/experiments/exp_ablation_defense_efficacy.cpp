/**
 * @file
 * Ablation as a registered experiment: the three defenses of Section IX
 * side by side — random replacement, FIFO replacement, and the fixed PL
 * cache — scored by channel error rate, sender stealth, and the
 * performance cost from Fig. 9.
 */

#include "core/experiments.hpp"
#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

double
meanCpiRatio(sim::ReplPolicyKind policy, std::uint64_t instructions)
{
    const auto rows = replacementPerformance(
        {sim::ReplPolicyKind::TreePlru, policy}, instructions, 9);
    double ratio_sum = 0.0;
    std::size_t n = 0;
    for (std::size_t w = 0; w * 2 < rows.size(); ++w) {
        ratio_sum += rows[w * 2 + 1].cpi / rows[w * 2].cpi;
        ++n;
    }
    return ratio_sum / static_cast<double>(n);
}

class AblationDefenseEfficacy final : public Experiment
{
  public:
    std::string
    name() const override
    {
        return "ablation_defense_efficacy";
    }

    std::string
    description() const override
    {
        return "Ablation: Section IX defenses side by side — error "
               "rate vs CPI cost";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 96, "random message length"),
            ParamSpec::integer("instructions", 200'000,
                               "CPI-model instructions per workload"),
            seedParam(77),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto bits =
            static_cast<std::size_t>(params.getUint("bits"));
        const auto instructions = params.getUint("instructions");
        const auto msg_seed = params.getUint("seed");

        sink.note("=== Ablation: defense efficacy vs cost (Section IX) "
                  "===\n");

        Table table({"Defense", "Alg.1 error", "Alg.2 error",
                     "Mean CPI vs PLRU"});

        // No defense (Tree-PLRU), then each replacement-policy defense,
        // against Alg. 1 (d = 8) and Alg. 2 (d = 5); every session keeps
        // the default seed.
        SessionConfig base;
        base.message = randomBits(bits, msg_seed);
        const std::vector<sim::ReplPolicyKind> policies{
            sim::ReplPolicyKind::TreePlru, sim::ReplPolicyKind::Random,
            sim::ReplPolicyKind::Fifo};
        const std::pair<ChannelId, std::uint32_t> algs[] = {
            {ChannelId::LruAlg1, 8}, {ChannelId::LruAlg2, 5}};
        SessionGrid grid(base, SeedRule::constant(base.seed));
        grid.policies(policies).over(
            "alg", algs, [](SessionConfig &cfg, const auto &alg) {
                cfg.channel = alg.first;
                cfg.d = alg.second;
            });
        const auto errors = grid.run(errorAndRate);
        for (std::uint32_t p = 0; p < policies.size(); ++p) {
            table.addRow(
                {p == 0 ? std::string("none (Tree-PLRU)")
                        : std::string(sim::replPolicyName(policies[p])) +
                              " replacement",
                 fmtPercent(errors.at({p, 0}).first),
                 fmtPercent(errors.at({p, 1}).first),
                 p == 0 ? std::string("1.000")
                        : fmtDouble(meanCpiRatio(policies[p], instructions),
                                    3)});
        }

        // Fixed PL cache (locked line + locked LRU state).
        {
            const auto fixed = plCacheAttack(sim::PlMode::FixedLruLock);
            table.addRow({"PL cache + LRU lock (fixed)",
                          "n/a (Alg.1 dies when line locked)",
                          fixed.constant ? "no signal (constant)"
                                         : fmtPercent(fixed.error_rate),
                          "~1.000 (lock-scoped)"});
        }

        sink.table("", table);

        sink.note("\nTakeaway: random replacement closes both channels "
                  "for < a few % CPI; FIFO closes\nthe hit-based "
                  "channel (remaining leak requires detectable misses); "
                  "the fixed PL\ncache protects locked lines "
                  "completely.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(AblationDefenseEfficacy)

} // namespace

} // namespace lruleak::experiments
