/**
 * @file
 * Figs. 5 and 14 as registered experiments: the receiver's raw latency
 * trace while the sender transmits alternating 0/1, hyper-threaded, on
 * Intel Xeon E5-2690 for Algorithm 1 (d = 8) and Algorithm 2 (d = 4, 5)
 * (Fig. 5), and repeated on Intel Xeon E3-1245 v5, Skylake (Fig. 14,
 * Appendix B) — the attack transfers across Intel generations.  One
 * class, registered once per figure with its machine, seed, traces and
 * captions.
 *
 * Rendering note: the paper's Fig. 5 bottom uses d = 4; on Tree-PLRU
 * the even-d pathology (their own Fig. 4) makes that trace noisy, so we
 * additionally show d = 5 where the alternation is clean.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

/** What one trace figure varies. */
struct TracesFigure
{
    const char *name;
    const char *description;
    const char *uarch; //!< machine token
    bool uarch_param;  //!< expose `uarch` as the uarch param's default
    std::int64_t seed;
    /** Heading: head + machine name + tail. */
    const char *head, *tail;
    /** One trace per (channel, receiver init depth d). */
    std::vector<std::pair<ChannelId, std::uint32_t>> traces;
    /** Fig. 5's captions give the threshold's unit and the decoded
     *  bits; Fig. 14's give neither. */
    bool full_captions;
    const char *reading;
};

class TracesExperiment final : public Experiment
{
  public:
    explicit TracesExperiment(TracesFigure figure) : fig_(std::move(figure))
    {
    }

    std::string name() const override { return fig_.name; }
    std::string description() const override { return fig_.description; }

    std::vector<ParamSpec>
    params() const override
    {
        std::vector<ParamSpec> specs{ParamSpec::integer(
            "bits", 20, "alternating message length")};
        if (fig_.uarch_param)
            specs.push_back(uarchParam(fig_.uarch));
        specs.push_back(seedParam(fig_.seed));
        return specs;
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        SessionConfig base;
        base.uarch = fig_.uarch_param ? uarchFromParams(params)
                                      : timing::uarchFromName(fig_.uarch);
        base.tr = 600;
        base.ts = 6000;
        base.message = alternatingBits(
            static_cast<std::size_t>(params.getUint("bits")));
        sink.note(fig_.head + base.uarch.name + fig_.tail);

        // Every trace runs at the one seed, side by side.
        SessionGrid grid(base, SeedRule::constant(params.getUint("seed")));
        grid.over("trace", fig_.traces,
                  [](SessionConfig &cfg, const auto &trace) {
                      cfg.channel = trace.first;
                      cfg.d = trace.second;
                  });
        const auto traces = grid.run(sessionTrace);
        for (std::uint32_t i = 0; i < fig_.traces.size(); ++i) {
            const auto &[id, d] = fig_.traces[i];
            const SessionTrace &res = traces.at({i});
            emitTrace(sink,
                      std::string(id == ChannelId::LruAlg1 ? "Algorithm 1"
                                                           : "Algorithm 2") +
                          ", Tr=600, Ts=6000, d=" + std::to_string(d) +
                          "  (threshold " + std::to_string(res.threshold) +
                          (fig_.full_captions ? " cycles" : "") +
                          ", rate " + fmtKbps(res.kbps) + ", error " +
                          fmtPercent(res.error_rate) + ")",
                      res, fig_.full_captions);
        }

        sink.note(fig_.reading);
    }

  private:
    TracesFigure fig_;
};

const Registrar fig5{std::make_unique<TracesExperiment>(TracesFigure{
    "fig5_traces",
    "Fig. 5: receiver latency traces, sender alternating 0/1, Intel "
    "hyper-threaded",
    "e5-2690", true, 5,
    "=== Fig. 5: receiver observations, sender alternating 0/1, ",
    " ===\n(y: pointer-chase latency in cycles; x: observation sequence)",
    {{ChannelId::LruAlg1, 8}, {ChannelId::LruAlg2, 4}, {ChannelId::LruAlg2, 5}},
    true,
    "\nPaper reference: Algorithm 1 shows low latency on 1 bits (line 0 "
    "hits); Algorithm 2\ninverts the polarity (1 bit = line 0 evicted = "
    "high latency)."})};

const Registrar fig14{std::make_unique<TracesExperiment>(TracesFigure{
    "fig14_skylake_traces",
    "Fig. 14: receiver traces on Skylake — the attack transfers across "
    "Intel generations",
    "e3-1245v5", false, 14,
    "=== Fig. 14 (Appendix B): receiver traces on ", " (Skylake) ===",
    {{ChannelId::LruAlg1, 8}, {ChannelId::LruAlg2, 5}},
    false,
    "\nPaper reference: same behaviour as the E5-2690 with a ~580 Kbps "
    "effective rate\n(3.9 GHz vs 3.8 GHz) and slightly different absolute "
    "latencies."})};

} // namespace

} // namespace lruleak::experiments
