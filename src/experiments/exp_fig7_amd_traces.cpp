/**
 * @file
 * Fig. 7 as a registered experiment: AMD EPYC 7571 hyper-threaded traces
 * with the coarse timestamp counter — raw samples are noisy, the moving
 * average shows the wave, and the best-fit period recovers the bit
 * length.
 *
 * Algorithm 1 runs between two threads of one address space (the utag
 * way predictor kills the cross-process variant, Section VI-B);
 * Algorithm 2 runs across separate processes.
 */

#include "channel/session.hpp"
#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

class Fig7AmdTraces final : public Experiment
{
  public:
    std::string name() const override { return "fig7_amd_traces"; }

    std::string
    description() const override
    {
        return "Fig. 7: AMD hyper-threaded traces — moving average "
               "recovers the wave under TSC noise";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 15, "alternating message length"),
            ParamSpec::integer("window", 97, "moving-average window"),
            seedParam(77),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        sink.note("=== Fig. 7: AMD EPYC 7571 hyper-threaded traces, "
                  "sender alternating 0/1 ===");

        amdTrace(LruAlgorithm::Alg1Shared, 8, params, sink);
        amdTrace(LruAlgorithm::Alg2Disjoint, 4, params, sink);

        sink.note("\nPaper reference: raw samples too coarse to "
                  "threshold directly; the moving average\nshows the "
                  "wave at ~97 samples/bit (Alg 1) / ~85 (Alg 2); "
                  "effective rates 22-25 Kbps.");
    }

  private:
    static void
    amdTrace(LruAlgorithm alg, std::uint32_t d, const ParamMap &params,
             ResultSink &sink)
    {
        SessionConfig cfg;
        cfg.channel = alg == LruAlgorithm::Alg1Shared
                          ? ChannelId::LruAlg1
                          : ChannelId::LruAlg2;
        cfg.mode = SharingMode::HyperThreaded;
        cfg.uarch = timing::Uarch::amdEpyc7571();
        cfg.d = d;
        cfg.tr = 1000;
        cfg.ts = 100'000;
        cfg.message = alternatingBits(
            static_cast<std::size_t>(params.getUint("bits")));
        cfg.shared_same_vaddr = true;
        cfg.seed = params.getUint("seed");
        const auto res = runSession(cfg);

        const auto window = params.getUint32("window");
        const auto lat = latencies(res.samples);
        const auto smooth = movingAverage(lat, window);
        const auto period = bestAlternatingPeriod(lat, 60, 140);

        sink.note(std::string("\n") +
                  std::string(alg == LruAlgorithm::Alg1Shared
                                  ? "Algorithm 1 (threads, same address "
                                    "space)"
                                  : "Algorithm 2 (separate processes)") +
                  ", Tr=1000, Ts=1e5, d=" + std::to_string(d));
        sink.series("raw trace (first 400 samples):",
                    std::vector<double>(
                        lat.begin(),
                        lat.begin() +
                            std::min<std::size_t>(400, lat.size())),
                    6);
        sink.series("moving average (window " + std::to_string(window) +
                        "):",
                    std::vector<double>(
                        smooth.begin(),
                        smooth.begin() +
                            std::min<std::size_t>(1400, smooth.size())),
                    6);
        sink.scalar("best-fit samples/bit (d=" + std::to_string(d) + ")",
                    static_cast<double>(period));
        sink.scalar("error rate (d=" + std::to_string(d) + ")",
                    res.error_rate);
        sink.scalar("effective Kbps (d=" + std::to_string(d) + ")",
                    res.kbps);
    }
};

LRULEAK_REGISTER_EXPERIMENT(Fig7AmdTraces)

} // namespace

} // namespace lruleak::experiments
