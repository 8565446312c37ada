/**
 * @file
 * Cross-core analogue of Fig. 5: the receiver's raw latency trace while
 * the sender transmits alternating 0/1 — but through the shared
 * inclusive LLC, sender and receiver on different cores, with
 * optional background-noise cores contending for the same cache.
 *
 * The readout separates "line 0 survived in the LLC" (~LLC-hit chase
 * latency) from "line 0 was evicted and back-invalidated" (~memory
 * chase latency), so the margin is much wider than the single-core
 * L1-vs-L2 traces of Fig. 5.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

class XCoreTraces final : public Experiment
{
  public:
    std::string name() const override { return "xcore_traces"; }

    std::string
    description() const override
    {
        return "cross-core LLC traces: receiver latency, sender "
               "alternating 0/1 through the shared inclusive LLC";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 12, "alternating message length"),
            ParamSpec::integer("cores", 2,
                               "total simulated cores (sender + receiver "
                               "+ noise); minimum 2"),
            ParamSpec::integer("d", 12,
                               "receiver init depth (1..16 LLC ways)"),
            ParamSpec::choice("policy", "treeplru",
                              "shared-LLC replacement policy",
                              {"lru", "treeplru", "bitplru", "fifo",
                               "random", "srrip"}),
            uarchParam("e5-2690"),
            seedParam(11),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto cores = params.getUint32("cores");
        if (cores < 2)
            throw ParamError("parameter 'cores': at least 2 cores "
                             "(sender + receiver) are required");

        SessionConfig cfg;
        cfg.channel = ChannelId::XCoreLruAlg2;
        cfg.mode = SharingMode::CrossCore;
        cfg.tr = 3000;
        cfg.ts = 30000;
        cfg.uarch = uarchFromParams(params);
        cfg.llc_policy = parsePolicy(params);
        cfg.noise_cores = cores - 2;
        cfg.d = params.getUint32("d");
        cfg.message = alternatingBits(
            static_cast<std::size_t>(params.getUint("bits")));
        cfg.seed = params.getUint("seed");

        sink.note("=== cross-core LLC channel: receiver observations, "
                  "sender alternating 0/1, " + cfg.uarch.name +
                  " ===\n(" + std::to_string(cores) + " cores, " +
                  std::to_string(cfg.noise_cores) + " of them noise; "
                  "shared 16-way inclusive LLC, " +
                  std::string(sim::replPolicyName(*cfg.llc_policy)) +
                  "; y: pointer-chase latency in cycles)");

        // The param's depth, then a full prime (init walks the whole
        // set), one seed for both.
        const std::uint32_t ds[] = {cfg.d, 16};
        SessionGrid grid(cfg, SeedRule::constant(cfg.seed));
        grid.over("d", ds, &SessionConfig::d);
        const auto traces = grid.run(sessionTrace);
        for (std::uint32_t i = 0; i < std::size(ds); ++i) {
            const SessionTrace &res = traces.at({i});
            emitTrace(sink,
                      "x-core Alg.2, Tr=" + std::to_string(cfg.tr) +
                          ", Ts=" + std::to_string(cfg.ts) +
                          ", d=" + std::to_string(ds[i]) +
                          "  (threshold " + std::to_string(res.threshold) +
                          " cycles, rate " + fmtKbps(res.kbps) +
                          ", error " + fmtPercent(res.error_rate) + ", " +
                          std::to_string(res.back_invalidations) +
                          " back-invalidations)",
                      res);
        }

        sink.note("\nAlgorithm 2 polarity at LLC scale: a 1 bit evicts "
                  "line 0 from the LLC, whose\nback-invalidation also "
                  "clears the private copies — high latency = 1.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(XCoreTraces)

} // namespace

} // namespace lruleak::experiments
