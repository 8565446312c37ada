/**
 * @file
 * Table IV as a registered experiment: transmission rates of the
 * evaluated LRU channels (Intel vs AMD, hyper-threaded vs time-sliced,
 * Algorithm 1 vs 2).
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

class Tab4TransmissionRates final : public Experiment
{
  public:
    std::string name() const override { return "tab4_transmission_rates"; }

    std::string
    description() const override
    {
        return "Table IV: transmission rates of the LRU channels "
               "(Intel/AMD x HT/time-sliced x Alg 1/2)";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 96,
                               "random message length for the "
                               "hyper-threaded runs"),
            seedParam(3),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto bits = static_cast<std::size_t>(params.getUint("bits"));
        const auto seed = params.getUint("seed");
        const timing::Uarch machines[] = {timing::Uarch::intelXeonE52690(),
                                          timing::Uarch::amdEpyc7571()};

        // Hyper-threaded: Algorithms 1 (d = 8) and 2 (d = 5) on each
        // machine at its protocol periods (the way-predictor AMD model
        // at Tr = 1000, Ts = 1e5), every session at the one seed.
        SessionConfig ht;
        ht.message = randomBits(bits, 17);
        const std::pair<ChannelId, std::uint32_t> algs[] = {
            {ChannelId::LruAlg1, 8}, {ChannelId::LruAlg2, 5}};
        SessionGrid ht_grid(ht, SeedRule::constant(seed));
        ht_grid
            .over("alg", algs,
                  [](SessionConfig &cfg, const auto &alg) {
                      cfg.channel = alg.first;
                      cfg.d = alg.second;
                  })
            .over("uarch", machines,
                  [](SessionConfig &cfg, const timing::Uarch &u) {
                      cfg.uarch = u;
                      cfg.ts = u.way_predictor ? 100'000 : 6000;
                      cfg.tr = u.way_predictor ? 1000 : 600;
                  });
        const auto kbps = ht_grid.run(errorAndRate);

        // Time-sliced, Algorithm 1, paper methodology: with Tr = 1e8 and
        // ~10 measurements needed to tell ~30% of 1s from < 5%, the rate
        // is measurements/10 per second (0 when the two blur).
        SessionConfig ts;
        ts.mode = SharingMode::TimeSliced;
        ts.d = 8;
        ts.tr = 100'000'000;
        ts.encode_gap = 20'000;
        ts.max_samples = 60;
        const std::uint8_t sent[] = {1, 0};
        SessionGrid ts_grid(ts, SeedRule::constant(seed));
        ts_grid.over("uarch", machines, &SessionConfig::uarch)
            .over("bit", sent, sendConstantly);
        const auto ones = ts_grid.run(percentOnes);
        const auto bps = [&](std::uint32_t m) {
            if (ones.at({m, 0}) < ones.at({m, 1}) + 0.05)
                return 0.0; // indistinguishable
            const double meas_per_sec =
                machines[m].ghz * 1e9 / double(ts.tr);
            return meas_per_sec / 10.0;
        };

        sink.note("=== Table IV: transmission rate of the evaluated LRU "
                  "channels ===\n");
        Table table({"Sharing", "Algorithm", "Intel", "AMD"});
        table.addRow({"Hyper-Threaded", "Algorithm 1",
                      fmtKbps(kbps.at({0, 0}).second),
                      fmtKbps(kbps.at({0, 1}).second)});
        table.addRow({"Hyper-Threaded", "Algorithm 2",
                      fmtKbps(kbps.at({1, 0}).second),
                      fmtKbps(kbps.at({1, 1}).second)});
        table.addRow({"Time-Sliced", "Algorithm 1",
                      fmtDouble(bps(0), 1) + " bps",
                      fmtDouble(bps(1), 2) + " bps"});
        table.addRow({"Time-Sliced", "Algorithm 2", "- (no signal)",
                      "- (no signal)"});
        sink.table("", table);

        sink.note("\nPaper reference: ~500 Kbps / ~20 Kbps "
                  "hyper-threaded, ~2 bps / ~0.2 bps time-sliced,\nno "
                  "Algorithm 2 signal in time-sliced sharing on either "
                  "CPU.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(Tab4TransmissionRates)

} // namespace

} // namespace lruleak::experiments
