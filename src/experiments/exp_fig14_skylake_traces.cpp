/**
 * @file
 * Fig. 14 (Appendix B) as a registered experiment: the Fig. 5 traces
 * repeated on Intel Xeon E3-1245 v5 (Skylake) — the attack transfers
 * across Intel generations.
 */

#include "channel/session.hpp"
#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

class Fig14SkylakeTraces final : public Experiment
{
  public:
    std::string name() const override { return "fig14_skylake_traces"; }

    std::string
    description() const override
    {
        return "Fig. 14: receiver traces on Skylake — the attack "
               "transfers across Intel generations";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 20,
                               "alternating message length"),
            seedParam(14),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        sink.note("=== Fig. 14 (Appendix B): receiver traces on Intel "
                  "Xeon E3-1245 v5 (Skylake) ===");
        trace(LruAlgorithm::Alg1Shared, 8, params, sink);
        trace(LruAlgorithm::Alg2Disjoint, 5, params, sink);
        sink.note("\nPaper reference: same behaviour as the E5-2690 "
                  "with a ~580 Kbps effective rate\n(3.9 GHz vs 3.8 "
                  "GHz) and slightly different absolute latencies.");
    }

  private:
    static void
    trace(LruAlgorithm alg, std::uint32_t d, const ParamMap &params,
          ResultSink &sink)
    {
        SessionConfig cfg;
        cfg.channel = alg == LruAlgorithm::Alg1Shared ? ChannelId::LruAlg1
                                                      : ChannelId::LruAlg2;
        cfg.uarch = timing::Uarch::intelXeonE31245v5();
        cfg.d = d;
        cfg.tr = 600;
        cfg.ts = 6000;
        cfg.message = alternatingBits(
            static_cast<std::size_t>(params.getUint("bits")));
        cfg.seed = params.getUint("seed");
        const auto res = runSession(cfg);

        sink.series(std::string("\n") +
                        std::string(alg == LruAlgorithm::Alg1Shared
                                        ? "Algorithm 1"
                                        : "Algorithm 2") +
                        ", Tr=600, Ts=6000, d=" + std::to_string(d) +
                        "  (threshold " + std::to_string(res.threshold) +
                        ", rate " + fmtKbps(res.kbps) + ", error " +
                        fmtPercent(res.error_rate) + ")",
                    sampleLatencies(res.samples, 200), 8);
    }
};

LRULEAK_REGISTER_EXPERIMENT(Fig14SkylakeTraces)

} // namespace

} // namespace lruleak::experiments
