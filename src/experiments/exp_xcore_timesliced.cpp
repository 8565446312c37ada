/**
 * @file
 * The first combined scenario of the execution-engine matrix: the
 * cross-core LLC channel (Algorithm 2 through the shared inclusive
 * LLC) with OS time-slicing layered on *both party cores* — a
 * Fig. 6-style error-versus-quantum sweep run cross-core.
 *
 * Each party core runs an exec::TimeSlice policy nested under the
 * cross-core LowestClock arbitration: the sender and receiver lose
 * slices to background processes, and every context switch executes
 * kernel scheduler code whose lines stream *through the shared LLC* —
 * so, unlike the single-core Fig. 6 setting, the OS noise of one core
 * pollutes the replacement state the other core's party decodes.  Two
 * effects shape the sweep: short quanta maximize kernel-switch
 * pollution (and its back-invalidation fallout), long quanta park a
 * party off-core for many bit periods at a time and lose whole bits.
 * The quantum=0 row is the dedicated-core baseline of `xcore_traces`.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

/** Swept scheduling quanta (cycles); 0 = dedicated cores baseline. */
constexpr std::uint64_t kQuanta[] = {0, 25'000, 50'000, 100'000, 200'000,
                                     400'000};

class XCoreTimesliced final : public Experiment
{
  public:
    std::string name() const override { return "xcore_timesliced"; }

    std::string
    description() const override
    {
        return "cross-core LLC channel with OS time-sliced party cores: "
               "error rate vs scheduling quantum";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 24, "random message length"),
            ParamSpec::integer("repeats", 1,
                               "times the message is re-sent"),
            ParamSpec::integer("noise-cores", 0,
                               "dedicated background-noise cores beyond "
                               "the pair"),
            ParamSpec::integer("d", 12,
                               "receiver init depth (1..16 LLC ways)"),
            ParamSpec::choice("policy", "treeplru",
                              "shared-LLC replacement policy",
                              {"lru", "treeplru", "bitplru", "fifo",
                               "random", "srrip"}),
            uarchParam("e5-2690"),
            seedParam(17),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto seed = params.getUint("seed");
        const auto noise_cores = params.getUint32("noise-cores");
        const auto d = params.getUint32("d");
        const auto repeats = params.getUint32("repeats");
        const Bits message = randomBits(
            static_cast<std::size_t>(params.getUint("bits")), 20200414);
        const auto uarch = uarchFromParams(params);
        const auto policy = parsePolicy(params);

        sink.note("=== cross-core LLC channel, party cores OS-time-"
                  "sliced: error vs quantum, " + uarch.name + " ===\n(" +
                  std::to_string(params.getUint("bits")) + "-bit random "
                  "string x" + std::to_string(repeats) + "; TimeSlice "
                  "nested per party core under LowestClock; quantum 0 = "
                  "dedicated cores;\nbackground processes steal 25% of "
                  "slices, every switch sprays kernel lines through "
                  "the shared LLC)");

        // One engine run per quantum, fanned out with per-cell seeds so
        // the table is identical for any LRULEAK_THREADS.
        SessionConfig base;
        base.channel = ChannelId::XCoreLruAlg2;
        base.mode = SharingMode::CrossCore;
        base.tr = 3000;
        base.ts = 30000;
        base.uarch = uarch;
        base.llc_policy = policy;
        base.noise_cores = noise_cores;
        base.d = d;
        base.message = message;
        base.repeats = repeats;
        // The OS knobs scale with the channel's cycle budget (the Fig. 6
        // defaults are tuned to quanta 1000x larger): jitter half a
        // quantum, a ~25 us timer tick.
        base.tslice.tick_period = 100'000;
        SessionGrid grid(base, SeedRule::flat(seed));
        grid.over("quantum", kQuanta,
                  [](SessionConfig &cfg, std::uint64_t quantum) {
                      cfg.quantum = quantum;
                      cfg.tslice.quantum_jitter = quantum / 2;
                  });
        const std::uint32_t cells = grid.cells();
        const auto results = grid.run(sessionTrace);

        Table table({"quantum (cyc)", "error", "rate", "bits rx",
                     "back-inval"});
        for (std::uint32_t i = 0; i < cells; ++i) {
            const auto &res = results.at({i});
            table.addRow({i == 0 ? "dedicated"
                                 : std::to_string(kQuanta[i]),
                          fmtPercent(res.error_rate), fmtKbps(res.kbps),
                          std::to_string(res.received.size()),
                          std::to_string(res.back_invalidations)});
        }
        sink.table("x-core Alg.2 over " +
                       std::string(sim::replPolicyName(policy)) +
                       " LLC, Tr=3000, Ts=30000, d=" + std::to_string(d),
                   table);

        double sliced_sum = 0.0;
        for (std::uint32_t i = 1; i < cells; ++i)
            sliced_sum += results.at({i}).error_rate;
        sink.scalar("error_dedicated", results.at({0}).error_rate);
        sink.scalar("mean_error_timesliced",
                    sliced_sum / static_cast<double>(cells - 1));
        sink.scalar("error_largest_quantum",
                    results.at({cells - 1}).error_rate);

        sink.note("\nMechanism: every context switch bursts kernel lines "
                  "through the shared LLC\n(polluting the target set's "
                  "replacement state from *both* cores), and background\n"
                  "slices park a party off-core — at the largest quantum "
                  "whole bit windows pass\nwith no receiver sample and "
                  "are lost outright.  The dedicated row reproduces\n"
                  "the xcore_traces baseline.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(XCoreTimesliced)

} // namespace

} // namespace lruleak::experiments
