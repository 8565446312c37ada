/**
 * @file
 * The channel-session matrix: every channel design the repo implements
 * (both LRU algorithms, both Flush+Reload baselines, Prime+Probe, the
 * cross-core LLC Algorithm 2 and the dirty-state family) run in every
 * sharing mode (hyper-threaded, OS-time-sliced, cross-core) over every
 * replacement policy of the carrier cache — error rate and effective
 * bandwidth per cell, through the one channel::Session pipeline — plus
 * a PL-cache secure-mode ablation of the hyper-threaded column, an AMD
 * way-predictor cross-address-space comparison, and a time-sliced +
 * LLC-noise-cores combination.
 *
 * This is the payoff of unifying the three transmission harnesses:
 * cells like cross-core Flush+Reload (the shared line decoded at
 * LLC-vs-memory scale) and time-sliced Prime+Probe simply could not be
 * expressed before, because each harness hard-wired one channel family
 * to one topology.  The paper's Tables IV-VII compare channels across
 * these axes one at a time; the matrix runs the whole cross product.
 *
 * Scale note: the time-sliced cells default to the paper-faithful CFS
 * geometry — 1.5e8-cycle quanta with the ~1 ms timer tick — which the
 * TimeSlice slice-event fast path makes affordable (idle spans advance
 * as single slice events; the SliceEvents tests are the equivalence
 * proof).  The protocol periods of those cells stretch
 * with the quantum so a bit spans the same number of slices at any
 * scale.  Passing a quantum below 1e6 (e.g. --quantum=30000) selects
 * the legacy scaled OS model — quantum, jitter and timer tick shrink
 * together, exactly as `xcore_timesliced` does.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

class ChannelMatrix final : public Experiment
{
  public:
    std::string name() const override { return "channel_matrix"; }

    std::string
    description() const override
    {
        return "channel-session matrix: all channels x all 3 sharing "
               "modes x carrier replacement policies, plus PL-cache, "
               "AMD cross-address-space and noise-core ablations";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 24, "random message length"),
            ParamSpec::integer("repeats", 1,
                               "times the message is re-sent"),
            ParamSpec::integer("quantum", 150'000'000,
                               "time-sliced cells: scheduling quantum in "
                               "cycles; values below 1e6 select the "
                               "scaled OS model (e.g. --quantum=30000)"),
            ParamSpec::integer("noise_cores", 2,
                               "background cores in the time-sliced + "
                               "noise section"),
            policiesParam("lru,treeplru,bitplru,fifo,random,srrip"),
            uarchParam("e5-2690"),
            seedParam(29),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto seed = params.getUint("seed");
        const auto repeats = params.getUint32("repeats");
        const auto quantum = params.getUint("quantum");
        const Bits message = randomBits(
            static_cast<std::size_t>(params.getUint("bits")), 20200415);
        const auto uarch = uarchFromParams(params);
        const auto policies = parsePolicies(params);

        // Regime switch: paper-faithful CFS quanta (default) or the
        // legacy scaled OS model.  Time-sliced protocol periods stretch
        // with the quantum so a bit spans the same number of slices in
        // either regime; at true scale the sender is paced at the
        // Fig. 6 re-encode gap instead of spinning the whole bit.
        const bool scaled = quantum < 1'000'000;
        const std::uint64_t period_scale = scaled ? 1 : quantum / 30'000;
        const auto configureTimeSlice = [&](SessionConfig &cfg,
                                            const ModePoint &point) {
            cfg.tr = point.tr * period_scale;
            cfg.ts = point.ts * period_scale;
            scaledTimeSlice(cfg, quantum);
            if (!scaled) {
                cfg.encode_gap = 20'000;
                cfg.tslice.tick_period = 4'000'000;
            }
        };

        const auto &channels = allChannelIds();
        const auto &modes = kModePoints;
        const std::uint32_t n_modes =
            static_cast<std::uint32_t>(std::size(modes));
        const std::uint32_t n_channels =
            static_cast<std::uint32_t>(channels.size());
        const auto errorRate = [](const SessionResult &res) {
            return res.error_rate;
        };
        SessionConfig base;
        base.uarch = uarch;
        base.message = message;
        base.repeats = repeats;

        sink.note("=== channel-session matrix: channel x sharing mode x "
                  "carrier policy, " + uarch.name + " ===\n(" +
                  std::to_string(params.getUint("bits")) + "-bit random "
                  "string x" + std::to_string(repeats) + "; one "
                  "channel::Session per cell; error = edit distance / "
                  "bits sent;\ntime-sliced cells run a quantum-" +
                  std::to_string(quantum) +
                  (scaled ? " scaled OS model" : " CFS model (true "
                                                 "quanta, ~1 ms tick)") +
                  "; cross-core cells decode through the shared "
                  "inclusive LLC)");

        // One flat trial-parallel sweep over (policy, channel, mode);
        // the per-cell seed depends only on the cell index, so any
        // LRULEAK_THREADS produces the same table.
        SessionGrid matrix(base, SeedRule::flat(seed));
        matrix.policies(policies)
            .over("channel", channels, &SessionConfig::channel)
            .over("mode", modes, [&](SessionConfig &cfg,
                                     const ModePoint &point) {
                point.apply(cfg);
                if (point.mode == SharingMode::TimeSliced)
                    configureTimeSlice(cfg, point);
            });
        const std::uint32_t cells = matrix.cells();
        const auto results = matrix.run(errorAndRate);

        for (std::uint32_t m = 0; m < n_modes; ++m) {
            Table table(policyHeader(policies));
            for (std::uint32_t c = 0; c < n_channels; ++c) {
                std::vector<std::string> row{
                    channelDisplayName(channels[c])};
                for (std::uint32_t p = 0; p < policies.size(); ++p) {
                    const auto &[err, kbps] = results.at({p, c, m});
                    row.push_back(fmtPercent(err) + " @ " +
                                  fmtKbps(kbps));
                }
                table.addRow(row);
            }
            const bool stretched =
                modes[m].mode == SharingMode::TimeSliced;
            const std::uint64_t eff_scale = stretched ? period_scale : 1;
            sink.table(
                "--- sharing mode: " +
                    std::string(sharingModeToken(modes[m].mode)) +
                    " (Tr=" + std::to_string(modes[m].tr * eff_scale) +
                    ", Ts=" + std::to_string(modes[m].ts * eff_scale) +
                    ") ---",
                table);
        }

        // The headline matrix (first listed policy), one scalar per
        // channel x mode so trends are machine-checkable.
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            for (std::uint32_t m = 0; m < n_modes; ++m) {
                sink.scalar(
                    "error_" +
                        std::string(channelIdToken(channels[c])) + "_" +
                        std::string(sharingModeToken(modes[m].mode)),
                    results.at({0, c, m}).first);
            }
        }

        // The sections below run the first listed policy on the L1
        // whatever the carrier, each seeded past the previous one.
        base.l1_policy = policies[0];

        // ----- PL-cache secure-mode ablation (Fig. 11's defense axis):
        // hyper-threaded cells, first listed policy, the sender locking
        // its line in a partition-locked L1.  The original PL design
        // still updates replacement state on locked hits, so the
        // LRU-state channels survive it; the fixed design freezes the
        // state and the dirty channels lose their evictable line.
        SessionConfig pl_base = base;
        modes[0].apply(pl_base);
        pl_base.sender_locks_line = true;
        const sim::PlMode pl_modes[] = {sim::PlMode::Original,
                                        sim::PlMode::FixedLruLock};
        SessionGrid pl_grid(pl_base, SeedRule::flat(seed + cells));
        pl_grid.over("channel", channels, &SessionConfig::channel)
            .over("pl", pl_modes, &SessionConfig::pl_mode);
        const auto pl_results = pl_grid.run(errorRate);

        Table pl_table({"Channel", "no PL-cache", "PL original",
                        "PL fixed (LRU-lock)"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            pl_table.addRow({channelDisplayName(channels[c]),
                             fmtPercent(results.at({0, c, 0}).first),
                             fmtPercent(pl_results.at({c, 0})),
                             fmtPercent(pl_results.at({c, 1}))});
            sink.scalar("error_" +
                            std::string(channelIdToken(channels[c])) +
                            "_pl_original",
                        pl_results.at({c, 0}));
            sink.scalar("error_" +
                            std::string(channelIdToken(channels[c])) +
                            "_pl_fixed",
                        pl_results.at({c, 1}));
        }
        sink.table("--- PL-cache ablation (hyperthreaded, " +
                       std::string(sim::replPolicyName(policies[0])) +
                       ", sender locks its line) ---",
                   pl_table);

        // ----- AMD way-predictor, cross-address-space (Section VII):
        // on Zen the L1 way predictor keys on a linear-address utag, so
        // sender and receiver mapping the shared line at *different*
        // virtual addresses fight the predictor on every probe.  Both
        // columns run the AMD model so the comparison isolates the
        // address-space split.
        SessionConfig amd_base = base;
        modes[0].apply(amd_base);
        amd_base.uarch = timing::Uarch::amdEpyc7571();
        const bool same_vaddr[] = {true, false};
        const std::uint64_t amd_seed = seed + cells + n_channels * 2;
        SessionGrid amd_grid(amd_base, SeedRule::flat(amd_seed));
        amd_grid.over("channel", channels, &SessionConfig::channel)
            .over("same_vaddr", same_vaddr,
                  &SessionConfig::shared_same_vaddr);
        const auto amd_results = amd_grid.run(errorRate);

        Table amd_table({"Channel", "same vaddr", "separate spaces"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            amd_table.addRow({channelDisplayName(channels[c]),
                              fmtPercent(amd_results.at({c, 0})),
                              fmtPercent(amd_results.at({c, 1}))});
            sink.scalar("error_" +
                            std::string(channelIdToken(channels[c])) +
                            "_amd_xspace",
                        amd_results.at({c, 1}));
        }
        sink.table("--- AMD way predictor (hyperthreaded, " +
                       amd_base.uarch.name + ", " +
                       std::string(sim::replPolicyName(policies[0])) +
                       "): shared vaddr vs separate address spaces ---",
                   amd_table);

        // ----- time-sliced + noise cores: OS scheduling on the party
        // core while background cores hammer the shared LLC — the two
        // noise sources the paper studies separately, combined.  Runs
        // on the multi-core topology with TimeSlice nested on core 0.
        // The busy noise cores keep its horizon a few ops away (the
        // parent LowestClock interleaves their LLC traffic between
        // ops), so this section always uses the scaled OS model; true
        // quanta here would mean minutes of op-by-op stepping per cell.
        const auto noise_cores = params.getUint32("noise_cores");
        const std::uint64_t noise_quantum = scaled ? quantum : 30'000;
        const std::uint64_t tsn_seed = amd_seed + n_channels * 2;
        SessionConfig tsn_base = base;
        modes[1].apply(tsn_base);
        scaledTimeSlice(tsn_base, noise_quantum);
        const auto scaledColumn = [&](std::uint32_t noise,
                                      std::uint64_t column_seed) {
            SessionConfig cfg = tsn_base;
            cfg.noise_cores = noise;
            SessionGrid grid(cfg, SeedRule::flat(column_seed));
            grid.over("channel", channels, &SessionConfig::channel);
            return grid.run(errorRate).values;
        };
        const auto tsn_results = scaledColumn(noise_cores, tsn_seed);

        // Baseline column at the *same* (scaled) OS scale, so the
        // comparison isolates the noise cores.  Under the scaled regime
        // the matrix's own time-sliced cells already are that baseline.
        std::vector<double> tsn_baseline(n_channels);
        if (scaled) {
            for (std::uint32_t c = 0; c < n_channels; ++c)
                tsn_baseline[c] = results.at({0, c, 1}).first;
        } else {
            tsn_baseline = scaledColumn(0, tsn_seed + n_channels);
        }

        Table tsn_table({"Channel", "no noise cores",
                         "+" + std::to_string(noise_cores) +
                             " noise cores"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            tsn_table.addRow({channelDisplayName(channels[c]),
                              fmtPercent(tsn_baseline[c]),
                              fmtPercent(tsn_results[c])});
            sink.scalar("error_" +
                            std::string(channelIdToken(channels[c])) +
                            "_timesliced_noise",
                        tsn_results[c]);
        }
        sink.table("--- time-sliced + LLC noise cores (" +
                       std::string(sim::replPolicyName(policies[0])) +
                       ", quantum-" + std::to_string(noise_quantum) +
                       " scaled OS model) ---",
                   tsn_table);

        sink.note("\nReading the matrix: the hyper-threaded column of "
                  "each table reproduces the paper's\nTable IV/VI "
                  "operating points; time-slicing degrades every design "
                  "(only the first\nmeasurement after a sender slice "
                  "carries signal); cross-core keeps the LLC-\ncarried "
                  "channels alive while the L1-resident F+R (L1) "
                  "design goes dark.  The\ncross-core Flush+Reload and "
                  "time-sliced Prime+Probe cells were unreachable\n"
                  "before the Session refactor.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(ChannelMatrix)

} // namespace

} // namespace lruleak::experiments
