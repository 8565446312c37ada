/**
 * @file
 * Fig. 6 as a registered experiment: time-sliced sharing on Intel Xeon
 * E5-2690 — the percentage of 1s the receiver observes versus its
 * sampling period Tr when the sender constantly sends 0 or 1,
 * Algorithm 1.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;

class Fig6Timesliced final : public Experiment
{
  public:
    std::string name() const override { return "fig6_timesliced"; }

    std::string
    description() const override
    {
        return "Fig. 6: time-sliced sharing on Intel — % of 1s received "
               "vs sampling period Tr";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("measurements", 100,
                               "receiver samples per point"),
            uarchParam("e5-2690"),
            seedParam(31),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto max_samples = params.getUint("measurements");
        const auto uarch = uarchFromParams(params);

        sink.note("=== Fig. 6: time-sliced sharing, % of 1s received, " +
                  uarch.name + ", Algorithm 1 ===\n(" +
                  std::to_string(max_samples) +
                  " measurements per point)");

        const std::uint64_t trs[] = {25'000'000, 50'000'000, 100'000'000,
                                     200'000'000, 400'000'000};
        const std::uint32_t ds[] = {1, 2, 3, 4, 5, 6, 7, 8};
        timeslicedTables(sink, params, uarch, trs, ds);

        sink.note("\nPaper reference: sending 0 -> ~0% of 1s for d = 8; "
                  "sending 1 -> ~30% of 1s around\nTr = 1e8 with "
                  "d = 7-8 strongest (only the first measurement after "
                  "a sender slice\nreflects the sender).  ~2.4 bps "
                  "effective.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(Fig6Timesliced)

} // namespace

} // namespace lruleak::experiments
