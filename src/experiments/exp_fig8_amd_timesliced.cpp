/**
 * @file
 * Fig. 8 as a registered experiment: AMD EPYC 7571 time-sliced sharing —
 * percentage of 1s received versus Tr when the sender constantly sends
 * 0 or 1 (Algorithm 1 between threads of one address space).
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;

class Fig8AmdTimesliced final : public Experiment
{
  public:
    std::string name() const override { return "fig8_amd_timesliced"; }

    std::string
    description() const override
    {
        return "Fig. 8: AMD time-sliced sharing — % of 1s received vs "
               "Tr, Algorithm 1";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("measurements", 100,
                               "receiver samples per point"),
            seedParam(51),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto max_samples = params.getUint("measurements");

        sink.note("=== Fig. 8: AMD EPYC 7571, time-sliced, % of 1s "
                  "received, Algorithm 1 ===\n(" +
                  std::to_string(max_samples) +
                  " measurements per point; threads share one address "
                  "space)");

        const std::uint64_t trs[] = {25'000'000, 100'000'000,
                                     200'000'000, 400'000'000};
        const std::uint32_t ds[] = {2, 4, 6, 8};
        timeslicedTables(sink, params, timing::Uarch::amdEpyc7571(), trs, ds);

        sink.note("\nPaper reference: ~70% of 1s when sending 0 vs ~77% "
                  "when sending 1 at Tr = 1e8 on\nAMD (the coarse TSC "
                  "biases the threshold); the gap widens with Tr; "
                  "~0.2 bps.\nOur model's absolute percentages differ "
                  "(the threshold bias is calibrated, not\nfitted) but "
                  "the sending-0/sending-1 gap is reproduced.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(Fig8AmdTimesliced)

} // namespace

} // namespace lruleak::experiments
