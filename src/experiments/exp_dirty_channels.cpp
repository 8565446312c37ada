/**
 * @file
 * The dirty-state channel family as registered experiments.
 *
 *  - dirty_channel_traces: the receiver's raw readout while the sender
 *    transmits alternating 0/1 through the dirty bit — dirty-evict
 *    hyper-threaded, flush-dirty hyper-threaded and flush-dirty
 *    cross-core (the carrier-independent member runs unchanged over
 *    the shared LLC).
 *
 *  - dirty_error_rate: error rate and bandwidth for both channels in
 *    all three sharing modes, with the write-policy ablation that
 *    pins down the mechanism: switching every cache to write-through
 *    leaves presence, replacement state and miss counts untouched but
 *    removes dirty lines, and both channels go dark.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

/** The family, sweep order fixed for tables and scalars. */
constexpr ChannelId kDirtyChannels[] = {ChannelId::DirtyEvict,
                                        ChannelId::FlushDirty};

class DirtyChannelTraces final : public Experiment
{
  public:
    std::string name() const override { return "dirty_channel_traces"; }

    std::string
    description() const override
    {
        return "dirty-state channels: receiver readout traces, sender "
               "alternating 0/1 through the dirty bit";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 20,
                               "alternating message length"),
            uarchParam("e5-2690"),
            seedParam(41),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto u = uarchFromParams(params);
        sink.note("=== dirty-state channel traces, sender alternating "
                  "0/1, " + u.name + " ===\n(y: timed readout in "
                  "cycles; x: observation sequence.  The sender touches "
                  "its line for BOTH\nsymbols — store for 1, load for 0 "
                  "— so presence and miss counts are symbol-blind\nand "
                  "only the write-back stall separates the levels)");

        // The three traces share the seed and run side by side.
        const std::pair<ChannelId, ModePoint> points[] = {
            {ChannelId::DirtyEvict, kModePoints[0]},
            {ChannelId::FlushDirty, kModePoints[0]},
            {ChannelId::FlushDirty, kModePoints[2]},
        };
        SessionConfig base;
        base.uarch = u;
        base.message = alternatingBits(
            static_cast<std::size_t>(params.getUint("bits")));
        SessionGrid grid(base, SeedRule::constant(params.getUint("seed")));
        grid.over("trace", points, [](SessionConfig &cfg,
                                      const auto &point) {
            cfg.channel = point.first;
            point.second.apply(cfg);
        });
        const auto traces = grid.run(sessionTrace);
        for (std::uint32_t i = 0; i < std::size(points); ++i) {
            const auto &[id, mode] = points[i];
            const SessionTrace &res = traces.at({i});
            emitTrace(sink,
                      channelDisplayName(id) + ", " +
                          std::string(sharingModeToken(mode.mode)) +
                          ", Tr=" + std::to_string(mode.tr) +
                          ", Ts=" + std::to_string(mode.ts) +
                          "  (threshold " + std::to_string(res.threshold) +
                          " cycles, rate " + fmtKbps(res.kbps) +
                          ", error " + fmtPercent(res.error_rate) + ")",
                      res);
        }

        sink.note("\nReading the traces: 1-bit windows sit one uarch "
                  "write-back latency above the\n0-bit floor.  "
                  "Flush-dirty's readout is the timed clflush itself, "
                  "so the cross-core\ntrace is the same signal over the "
                  "shared LLC — the carrier never enters the\nreadout.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(DirtyChannelTraces)

class DirtyErrorRate final : public Experiment
{
  public:
    std::string name() const override { return "dirty_error_rate"; }

    std::string
    description() const override
    {
        return "dirty-state channels: error rate per sharing mode with "
               "the write-back vs write-through ablation";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 64, "random message length"),
            ParamSpec::integer("repeats", 2,
                               "times the message is re-sent"),
            ParamSpec::integer("quantum", 30'000,
                               "time-sliced cells: scheduling quantum "
                               "in cycles (scaled OS model)"),
            uarchParam("e5-2690"),
            seedParam(43),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto seed = params.getUint("seed");
        const auto repeats = params.getUint32("repeats");
        const auto quantum = params.getUint("quantum");
        const auto uarch = uarchFromParams(params);
        const Bits message = randomBits(
            static_cast<std::size_t>(params.getUint("bits")), 20200408);

        sink.note("=== dirty-state channel error rates, " + uarch.name +
                  " ===\n(" + std::to_string(params.getUint("bits")) +
                  "-bit random string x" + std::to_string(repeats) +
                  "; error = edit distance / bits sent.  The ablation "
                  "re-runs every cell with\nevery cache write-through: "
                  "same accesses, same misses, no dirty lines — a "
                  "channel\nthat survives that is not reading the dirty "
                  "bit)");

        // Flat trial-parallel sweep over (channel, mode, write policy);
        // per-cell seeds depend only on the cell index, and a cell's
        // write-back and write-through sessions share one, so the table
        // is identical for any worker count.
        SessionConfig base;
        base.uarch = uarch;
        base.message = message;
        base.repeats = repeats;
        const sim::WriteHitPolicy writes[] = {
            sim::WriteHitPolicy::WriteBack,
            sim::WriteHitPolicy::WriteThrough};
        SessionGrid grid(base, SeedRule::flat(seed, 2));
        grid.over("channel", kDirtyChannels, &SessionConfig::channel)
            .over("mode", kModePoints, [&](SessionConfig &cfg,
                                           const ModePoint &point) {
                point.apply(cfg);
                if (point.mode == SharingMode::TimeSliced)
                    scaledTimeSlice(cfg, quantum);
            })
            .over("write", writes, &SessionConfig::write_hit);
        const auto results = grid.run(errorAndRate);

        Table table({"Channel", "Mode", "write-back", "write-through"});
        for (std::uint32_t c = 0; c < std::size(kDirtyChannels); ++c) {
            for (std::uint32_t m = 0; m < std::size(kModePoints); ++m) {
                const auto &[wb_err, wb_kbps] = results.at({c, m, 0});
                const double wt_err = results.at({c, m, 1}).first;
                const SharingMode mode = kModePoints[m].mode;
                table.addRow({channelDisplayName(kDirtyChannels[c]),
                              std::string(sharingModeToken(mode)),
                              fmtPercent(wb_err) + " @ " +
                                  fmtKbps(wb_kbps),
                              fmtPercent(wt_err)});

                const std::string key =
                    "error_" +
                    std::string(channelIdToken(kDirtyChannels[c])) + "_" +
                    std::string(sharingModeToken(mode));
                sink.scalar(key + "_wb", wb_err);
                sink.scalar(key + "_wt", wt_err);
            }
        }
        sink.table("", table);

        sink.note("\nReading the table: hyper-threaded and cross-core "
                  "write-back cells transmit (the\ncross-core dirty "
                  "channels ride the shared LLC's dirty bits); every "
                  "write-through\ncell collapses to the dead-channel "
                  "error floor.  Time-slicing degrades the dirty\n"
                  "family like every other design — only the first "
                  "readout after a sender slice\ncarries signal.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(DirtyErrorRate)

} // namespace

} // namespace lruleak::experiments
