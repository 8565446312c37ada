/**
 * @file
 * Cross-core analogue of Fig. 4: transmission error rate of the
 * LLC-carried Algorithm 2 channel versus transmission rate, swept over
 * every implemented replacement policy and over the number of
 * background-noise cores contending for the shared LLC.
 *
 * Two trends anchor the scenario family: with zero noise cores the
 * error-versus-rate shape of the single-core Fig. 4 reappears (faster
 * sending = higher error), and adding noise cores degrades the channel
 * monotonically on average — the per-noise-count means are emitted as
 * scalars so the trend is machine-checkable.  Cells fan out through
 * one SessionGrid with per-cell seeds, so the output is bit-identical
 * for any LRULEAK_THREADS.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

constexpr std::uint64_t kTsValues[] = {7500, 15000, 30000, 60000};

class XCoreErrorRate final : public Experiment
{
  public:
    std::string name() const override { return "xcore_error_rate"; }

    std::string
    description() const override
    {
        return "cross-core LLC channel: error rate vs rate, swept over "
               "replacement policies and noise cores";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 32, "random message length"),
            ParamSpec::integer("repeats", 2,
                               "times the message is re-sent"),
            ParamSpec::integer("noise-cores", 3,
                               "sweep background-noise cores 0..N"),
            ParamSpec::integer("d", 12,
                               "receiver init depth (1..16 LLC ways)"),
            uarchParam("e5-2690"),
            seedParam(13),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto max_noise = params.getUint32("noise-cores");
        const auto seed = params.getUint("seed");
        const auto d = params.getUint32("d");
        const auto repeats = params.getUint32("repeats");
        const Bits message = randomBits(
            static_cast<std::size_t>(params.getUint("bits")), 20200413);
        const auto uarch = uarchFromParams(params);

        sink.note("=== cross-core LLC channel: error rate vs "
                  "transmission rate, " + uarch.name + " ===\n(" +
                  std::to_string(params.getUint("bits")) + "-bit random "
                  "string x" + std::to_string(params.getUint("repeats")) +
                  "; sender core 0, receiver core 1, 0.." +
                  std::to_string(max_noise) + " noise cores; error = "
                  "edit distance / bits sent)");

        const auto &policies = sim::allReplPolicyKinds();
        const std::uint32_t n_ts = std::size(kTsValues);
        const std::uint32_t noise_levels = max_noise + 1;

        // One flat trial-parallel sweep over (policy, Ts, noise); the
        // per-cell seed depends only on the cell index, so any worker
        // count produces the same table.
        SessionConfig base;
        base.channel = ChannelId::XCoreLruAlg2;
        base.mode = SharingMode::CrossCore;
        base.tr = 3000;
        base.uarch = uarch;
        base.d = d;
        base.message = message;
        base.repeats = repeats;
        SessionGrid grid(base, SeedRule::flat(seed));
        grid.policies(policies)
            .over("ts", kTsValues, &SessionConfig::ts)
            .axis("noise", noise_levels,
                  [](SessionConfig &cfg, std::uint32_t noise) {
                      cfg.noise_cores = noise;
                  });
        const auto results = grid.run(errorAndRate);

        std::vector<double> noise_error_sum(noise_levels, 0.0);
        for (std::uint32_t pol = 0; pol < policies.size(); ++pol) {
            std::vector<std::string> header{"Ts (cyc)", "Rate"};
            for (std::uint32_t k = 0; k < noise_levels; ++k)
                header.push_back("noise=" + std::to_string(k));
            Table table(header);
            for (std::uint32_t t = 0; t < n_ts; ++t) {
                std::vector<std::string> row{
                    std::to_string(kTsValues[t]),
                    fmtKbps(results.at({pol, t, 0}).second)};
                for (std::uint32_t k = 0; k < noise_levels; ++k) {
                    const double error = results.at({pol, t, k}).first;
                    row.push_back(fmtPercent(error));
                    noise_error_sum[k] += error;
                }
                table.addRow(row);
            }
            sink.table("LLC policy: " + std::string(sim::replPolicyName(
                           policies[pol])),
                       table);
        }

        const double rows_per_noise =
            static_cast<double>(policies.size() * n_ts);
        for (std::uint32_t k = 0; k < noise_levels; ++k)
            sink.scalar("mean_error_noise" + std::to_string(k),
                        noise_error_sum[k] / rows_per_noise);

        sink.note("\nPaper reference: the noise-free column reproduces "
                  "the Fig. 4 trend (faster\nsending = higher error); "
                  "every added noise core degrades the channel further "
                  "—\nthe mean_error_noise* scalars expose the "
                  "monotonic-on-average trend.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(XCoreErrorRate)

} // namespace

} // namespace lruleak::experiments
