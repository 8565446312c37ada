/**
 * @file
 * Figs. 6, 8 and 15 as registered experiments: time-sliced sharing —
 * the percentage of 1s the receiver observes versus its sampling period
 * Tr when the sender constantly sends 0 or 1, Algorithm 1 — on Intel
 * Xeon E5-2690 (Fig. 6), AMD EPYC 7571 between threads of one address
 * space (Fig. 8) and Intel Xeon E3-1245 v5, Skylake (Fig. 15, Appendix
 * B).  One class, registered once per figure with its machine, seed,
 * (Tr, d) axes and captions.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;

/** What one time-sliced figure varies. */
struct TimeslicedFigure
{
    const char *name;
    const char *description;
    const char *uarch; //!< machine token
    bool uarch_param;  //!< expose `uarch` as the uarch param's default
    std::int64_t seed;
    /** Heading: head + machine name + mid + measurements + tail. */
    const char *head, *mid, *tail;
    std::vector<std::uint64_t> trs;
    std::vector<std::uint32_t> ds;
    const char *reading;
};

class TimeslicedExperiment final : public Experiment
{
  public:
    explicit TimeslicedExperiment(TimeslicedFigure figure)
        : fig_(std::move(figure))
    {
    }

    std::string name() const override { return fig_.name; }
    std::string description() const override { return fig_.description; }

    std::vector<ParamSpec>
    params() const override
    {
        std::vector<ParamSpec> specs{ParamSpec::integer(
            "measurements", 100, "receiver samples per point")};
        if (fig_.uarch_param)
            specs.push_back(uarchParam(fig_.uarch));
        specs.push_back(seedParam(fig_.seed));
        return specs;
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto max_samples = params.getUint("measurements");
        const auto uarch = fig_.uarch_param
                               ? uarchFromParams(params)
                               : timing::uarchFromName(fig_.uarch);
        sink.note(fig_.head + uarch.name + fig_.mid +
                  std::to_string(max_samples) + fig_.tail);

        std::vector<std::string> header{"Tr (x1e6)"};
        for (const std::uint32_t d : fig_.ds)
            header.push_back("d=" + std::to_string(d));
        const auto cells =
            timeslicedGrid(uarch, fig_.trs, fig_.ds, max_samples,
                           params.getUint("seed"))
                .run(channel::percentOnes);
        for (std::uint32_t bit : {0u, 1u}) {
            Table table(header);
            for (std::uint32_t t = 0; t < fig_.trs.size(); ++t) {
                std::vector<std::string> row{
                    std::to_string(fig_.trs[t] / 1'000'000)};
                for (std::uint32_t j = 0; j < fig_.ds.size(); ++j)
                    row.push_back(fmtPercent(cells.at({bit, t, j})));
                table.addRow(row);
            }
            sink.table("--- Sender constantly sending " +
                           std::to_string(bit) + " ---",
                       table);
        }

        sink.note(fig_.reading);
    }

  private:
    TimeslicedFigure fig_;
};

const Registrar fig6{std::make_unique<TimeslicedExperiment>(TimeslicedFigure{
    "fig6_timesliced",
    "Fig. 6: time-sliced sharing on Intel — % of 1s received vs sampling "
    "period Tr",
    "e5-2690", true, 31,
    "=== Fig. 6: time-sliced sharing, % of 1s received, ",
    ", Algorithm 1 ===\n(", " measurements per point)",
    {25'000'000, 50'000'000, 100'000'000, 200'000'000, 400'000'000},
    {1, 2, 3, 4, 5, 6, 7, 8},
    "\nPaper reference: sending 0 -> ~0% of 1s for d = 8; sending 1 -> "
    "~30% of 1s around\nTr = 1e8 with d = 7-8 strongest (only the first "
    "measurement after a sender slice\nreflects the sender).  ~2.4 bps "
    "effective."})};

const Registrar fig8{std::make_unique<TimeslicedExperiment>(TimeslicedFigure{
    "fig8_amd_timesliced",
    "Fig. 8: AMD time-sliced sharing — % of 1s received vs Tr, Algorithm 1",
    "epyc-7571", false, 51, "=== Fig. 8: ",
    ", time-sliced, % of 1s received, Algorithm 1 ===\n(",
    " measurements per point; threads share one address space)",
    {25'000'000, 100'000'000, 200'000'000, 400'000'000},
    {2, 4, 6, 8},
    "\nPaper reference: ~70% of 1s when sending 0 vs ~77% when sending 1 "
    "at Tr = 1e8 on\nAMD (the coarse TSC biases the threshold); the gap "
    "widens with Tr; ~0.2 bps.\nOur model's absolute percentages differ "
    "(the threshold bias is calibrated, not\nfitted) but the "
    "sending-0/sending-1 gap is reproduced."})};

const Registrar fig15{std::make_unique<TimeslicedExperiment>(TimeslicedFigure{
    "fig15_skylake_timesliced",
    "Fig. 15: time-sliced % of 1s on Skylake, Algorithm 1",
    "e3-1245v5", false, 61,
    "=== Fig. 15 (Appendix B): time-sliced % of 1s, ",
    ", Algorithm 1 ===\n(", " measurements per point)",
    {25'000'000, 100'000'000, 200'000'000, 400'000'000},
    {2, 4, 6, 8},
    "\nPaper reference: same shape as the E5-2690 (Fig. 6): sending 0 "
    "near 0%, sending 1\nclearly above it for d = 7-8 around Tr = 1e8."})};

} // namespace

} // namespace lruleak::experiments
