/**
 * @file
 * The second combined scenario of the execution-engine matrix: the
 * paper's hyper-threaded L1 channel (Fig. 5) running as an SMT pair on
 * core 0 of an N-core system while background-noise cores contend for
 * the shared inclusive LLC.
 *
 * Sender and receiver are two bare threads of core 0 under the
 * cross-core LowestClock arbitration: they interleave per-op exactly
 * as in the single-core Section V-A setting, but the other cores'
 * traffic now evicts LLC lines whose back-invalidation reaches *into
 * core 0's private L1* and knocks out channel lines mid-protocol — a
 * noise source the single-core topology cannot model.  Sweeping the
 * noise-core count shows the L1 channel degrading with co-scheduled
 * load, and the trace rows make the injected misses visible.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

class SmtMulticoreTraces final : public Experiment
{
  public:
    std::string name() const override { return "smt_multicore_traces"; }

    std::string
    description() const override
    {
        return "SMT L1 channel on core 0 of an N-core system: traces "
               "and error vs LLC noise cores";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 12, "alternating message length"),
            ParamSpec::integer("cores", 8,
                               "total simulated cores (the SMT pair's "
                               "core + noise cores); minimum 1"),
            ParamSpec::integer("d", 8,
                               "receiver init depth (1..8 L1 ways)"),
            ParamSpec::choice("alg", "alg2",
                              "LRU channel algorithm on the shared L1 "
                              "(alg2's receiver-owned line is the "
                              "noise-sensitive one; alg1's shared line "
                              "self-heals)",
                              {"alg1", "alg2"}),
            uarchParam("e5-2690"),
            seedParam(23),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto cores = params.getUint32("cores");
        if (cores < 1)
            throw ParamError("parameter 'cores': at least the SMT "
                             "pair's core is required");
        const auto seed = params.getUint("seed");
        const auto d = params.getUint32("d");
        const auto alg = params.getStr("alg") == "alg2"
                             ? LruAlgorithm::Alg2Disjoint
                             : LruAlgorithm::Alg1Shared;
        const Bits message = alternatingBits(
            static_cast<std::size_t>(params.getUint("bits")));
        const auto uarch = uarchFromParams(params);

        sink.note("=== SMT pair on core 0 of a " + std::to_string(cores) +
                  "-core system: hyper-threaded L1 channel vs shared-LLC "
                  "noise, " + uarch.name + " ===\n(the pair runs as two "
                  "bare threads of core 0 under LowestClock; noise cores "
                  "reach the pair's L1\nonly through inclusive-LLC "
                  "back-invalidation)");

        // One run per noise-core count 0..cores-1, fanned out with
        // per-cell seeds (identical output for any LRULEAK_THREADS).
        const std::uint32_t noise_levels = cores;
        SessionConfig base;
        base.channel = alg == LruAlgorithm::Alg1Shared ? ChannelId::LruAlg1
                                                       : ChannelId::LruAlg2;
        base.mode = SharingMode::HyperThreaded;
        base.multicore = true;
        base.uarch = uarch;
        base.d = d;
        base.message = message;
        // The channel's L1-set-7 lines scatter to LLC sets 64k+7 (L1
        // tag bits feed the LLC index), so an oblivious LLC-wide
        // footprint almost never pressures them inside the receiver's
        // 600-cycle sleep window.  Model the worst realistic
        // co-resident instead: a streaming process whose hot set
        // collides with the timed line's LLC set (71), deeper than the
        // LLC's associativity.  Its fills evict line 0 from the LLC
        // mid-protocol and the back-invalidation clears the pair's
        // private copies — the cross-core noise path.
        base.noise.base = 0x6000'0000'0000ULL + (71u << 6);
        base.noise.footprint_sets = 1;
        base.noise.lines_per_set = 24;
        base.noise.burst = 256;
        base.noise.gap = 10;
        SessionGrid grid(base, SeedRule::flat(seed));
        grid.axis("noise", noise_levels,
                  [](SessionConfig &cfg, std::uint32_t noise) {
                      cfg.noise_cores = noise;
                  });
        const auto results = grid.run(sessionTrace);
        const SessionTrace &quiet = results.at({0});
        const SessionTrace &full = results.at({noise_levels - 1});

        Table table({"noise cores", "error", "rate", "back-inval",
                     "rx L1 miss%"});
        for (std::uint32_t k = 0; k < noise_levels; ++k) {
            const SessionTrace &res = results.at({k});
            table.addRow({std::to_string(k), fmtPercent(res.error_rate),
                          fmtKbps(res.kbps),
                          std::to_string(res.back_invalidations),
                          fmtPercent(res.receiver_l1_miss_rate)});
        }
        sink.table("SMT " + std::string(alg == LruAlgorithm::Alg1Shared
                                            ? "Alg.1"
                                            : "Alg.2") +
                       " on core-0 L1, Tr=600, Ts=6000, d=" +
                       std::to_string(d),
                   table);

        // Traces: quiet system vs full noise, Fig. 5 style.
        trace(quiet, 0, sink);
        if (noise_levels > 1)
            trace(full, noise_levels - 1, sink);

        sink.scalar("error_quiet", quiet.error_rate);
        sink.scalar("error_full_noise", full.error_rate);

        sink.note("\nThe quiet row reproduces the single-core Fig. 5 "
                  "behaviour.  Noise cores never\ntouch core 0's L1 "
                  "directly — they reach it through inclusive-LLC "
                  "back-\ninvalidation, whose rate is memory-latency-"
                  "bound (~3 colliding fills per\nsleep window per "
                  "core): the channel shrugs off light load, then "
                  "collapses\nonce the per-window eviction pressure "
                  "crosses the LLC associativity and\nevery Alg.2 "
                  "0-bit reads as an eviction.  Alg.1 (--alg=alg1) "
                  "stays at 0%\nerror throughout: its shared line is "
                  "re-warmed by the sender within an\nencode gap, so "
                  "back-invalidation cannot stick.");
    }

  private:
    static void
    trace(const SessionTrace &res, std::uint32_t noise, ResultSink &sink)
    {
        emitTrace(sink,
                  "receiver trace, " + std::to_string(noise) +
                      " noise core" + (noise == 1 ? "" : "s") +
                      "  (threshold " + std::to_string(res.threshold) +
                      " cycles, error " + fmtPercent(res.error_rate) +
                      ", " + std::to_string(res.back_invalidations) +
                      " back-invalidations)",
                  res);
    }
};

LRULEAK_REGISTER_EXPERIMENT(SmtMulticoreTraces)

} // namespace

} // namespace lruleak::experiments
