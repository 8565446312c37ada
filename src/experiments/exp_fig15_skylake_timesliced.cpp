/**
 * @file
 * Fig. 15 (Appendix B) as a registered experiment: the time-sliced
 * percentage-of-1s experiment on Intel Xeon E3-1245 v5 (Skylake).
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;

class Fig15SkylakeTimesliced final : public Experiment
{
  public:
    std::string
    name() const override
    {
        return "fig15_skylake_timesliced";
    }

    std::string
    description() const override
    {
        return "Fig. 15: time-sliced % of 1s on Skylake, Algorithm 1";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("measurements", 100,
                               "receiver samples per point"),
            seedParam(61),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto max_samples = params.getUint("measurements");

        sink.note("=== Fig. 15 (Appendix B): time-sliced % of 1s, "
                  "Intel Xeon E3-1245 v5, Algorithm 1 ===\n(" +
                  std::to_string(max_samples) +
                  " measurements per point)");

        const std::uint64_t trs[] = {25'000'000, 100'000'000,
                                     200'000'000, 400'000'000};
        const std::uint32_t ds[] = {2, 4, 6, 8};
        timeslicedTables(sink, params, timing::Uarch::intelXeonE31245v5(),
                         trs, ds);

        sink.note("\nPaper reference: same shape as the E5-2690 "
                  "(Fig. 6): sending 0 near 0%, sending 1\nclearly "
                  "above it for d = 7-8 around Tr = 1e8.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(Fig15SkylakeTimesliced)

} // namespace

} // namespace lruleak::experiments
