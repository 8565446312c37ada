/**
 * @file
 * Table V as a registered experiment: the sender's encoding latency per
 * channel — the LRU channels encode with an L1 hit, Flush+Reload with an
 * L2 hit or a full memory miss.
 */

#include "core/experiments.hpp"
#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;

class Tab5EncodingLatency final : public Experiment
{
  public:
    std::string name() const override { return "tab5_encoding_latency"; }

    std::string
    description() const override
    {
        return "Table V: sender encoding latency per channel (L1-hit "
               "encode is the LRU channel's edge)";
    }

    void
    run(const ParamMap &, ResultSink &sink) const override
    {
        sink.note("=== Table V: latency of encoding (cycles) ===\n");
        Table table({"Model", "F+R (mem)", "F+R (L1)",
                     "L1 LRU (Alg.1&2)"});
        for (const auto &u : {timing::Uarch::intelXeonE52690(),
                              timing::Uarch::intelXeonE31245v5(),
                              timing::Uarch::amdEpyc7571()}) {
            const double fr_mem =
                meanEncodeLatency(u, channel::ChannelId::FrMem);
            const double fr_l1 =
                meanEncodeLatency(u, channel::ChannelId::FrL1);
            const double lru =
                (meanEncodeLatency(u, channel::ChannelId::LruAlg1) +
                 meanEncodeLatency(u, channel::ChannelId::LruAlg2)) /
                2.0;
            table.addRow({u.name, fmtDouble(fr_mem, 0),
                          fmtDouble(fr_l1, 0), fmtDouble(lru, 0)});
        }
        sink.table("", table);

        sink.note("\nPaper reference: E5-2690 336/35/31, E3-1245v5 "
                  "288/40/35, EPYC 7571 232/56/52.\nThe LRU channel's "
                  "short (cache-hit) encode is what shrinks the Spectre "
                  "speculation\nwindow requirement (Section VIII).");
    }
};

LRULEAK_REGISTER_EXPERIMENT(Tab5EncodingLatency)

} // namespace

} // namespace lruleak::experiments
