/**
 * @file
 * Fig. 4 as a registered experiment: transmission error rate (edit
 * distance) versus transmission rate for the hyper-threaded LRU channels
 * on Intel Xeon E5-2690 — Algorithms 1 and 2, Tr in {600, 1000, 3000},
 * d in 1..8, Ts in {4500, 6000, 12000, 30000}.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

class Fig4ErrorRate final : public Experiment
{
  public:
    std::string name() const override { return "fig4_error_rate"; }

    std::string
    description() const override
    {
        return "Fig. 4: error rate vs transmission rate, hyper-threaded "
               "LRU channels on Intel";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 128, "random message length"),
            ParamSpec::integer("repeats", 4,
                               "times the message is re-sent"),
            seedParam(7),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        sink.note("=== Fig. 4: error rate vs transmission rate, "
                  "hyper-threaded, Intel Xeon E5-2690 ===\n(random " +
                  std::to_string(params.getUint("bits")) +
                  "-bit string x" + std::to_string(params.getUint(
                      "repeats")) +
                  "; error = Wagner-Fischer edit distance / bits sent)");

        // Both algorithms' (Tr, Ts, d) cells are independent channel
        // runs: one trial-parallel sweep.  Seeds stay the sequential
        // ones (seed + d), so the tables are identical for any worker
        // count.
        const ChannelId algs[] = {ChannelId::LruAlg1, ChannelId::LruAlg2};
        const char *titles[] = {"Algorithm 1 (shared memory)",
                                "Algorithm 2 (no shared memory)"};
        const std::uint64_t trs[] = {600, 1000, 3000};
        const std::uint64_t tss[] = {4500, 6000, 12000, 30000};
        const std::uint32_t ds[] = {1, 2, 3, 4, 5, 6, 7, 8};
        SessionConfig base;
        base.message = randomBits(
            static_cast<std::size_t>(params.getUint("bits")), 20200128);
        base.repeats = params.getUint32("repeats");
        SessionGrid grid(base, SeedRule::depth(params.getUint("seed")));
        grid.over("alg", algs, &SessionConfig::channel)
            .over("tr", trs, &SessionConfig::tr)
            .over("ts", tss, &SessionConfig::ts)
            .over("d", ds, &SessionConfig::d);
        const auto cells = grid.run(errorAndRate);

        for (std::uint32_t a = 0; a < std::size(algs); ++a) {
            sink.note("\n--- " + std::string(titles[a]) + " ---");
            for (std::uint32_t r = 0; r < std::size(trs); ++r) {
                Table table({"Ts (cyc)", "Rate", "d=1", "d=2", "d=3",
                             "d=4", "d=5", "d=6", "d=7", "d=8"});
                for (std::uint32_t t = 0; t < std::size(tss); ++t) {
                    std::vector<std::string> full{
                        std::to_string(tss[t]),
                        fmtKbps(cells.at({a, r, t, 7}).second)};
                    for (std::uint32_t d = 0; d < 8; ++d)
                        full.push_back(
                            fmtPercent(cells.at({a, r, t, d}).first));
                    table.addRow(full);
                }
                sink.table("Tr = " + std::to_string(trs[r]) + " cycles",
                           table);
            }
        }

        sink.note("\nPaper reference: error grows with rate; Algorithm "
                  "2 is noisier with the even-d\nTree-PLRU pathology "
                  "(d = 2,4,6 bad); Tr = 3000 is the worst sampling "
                  "period.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(Fig4ErrorRate)

} // namespace

} // namespace lruleak::experiments
