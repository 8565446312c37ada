/**
 * @file
 * Detect-and-defend scorecard: the SHARP-protected shared LLC against
 * single- and multi-spy cross-core LRU attacks.
 *
 * Rows are the adversary strength (spy count K, channel/multi_spy.hpp);
 * columns are the defense operating points — SHARP off, and SHARP on at
 * each alarm threshold in the sweep (0 = pure detector that refuses
 * cross-owner evictions but never denies fills; > 0 adds alarm-driven
 * fill denial once a core exceeds the budget).  Every cell runs
 * `trials` uncontended cross-core Algorithm-2 sessions and scores both
 * sides of the engagement:
 *
 *   attack:   edit-distance error rate and pooled bits/use
 *             (Miller-Madow MI via leakage::Report, like
 *             leakage_matrix);
 *   defense:  alarm rate = refusal events per transmitted bit on the
 *             colluding party cores (sender + spies), plus the
 *             forced-eviction and fill-denial counts.
 *
 * A separate panel prices the detector's other side: per threshold,
 * idle-channel sessions (all-zero message, nothing transmitted) with
 * `noise` benign background cores riding the same LLC measure how many
 * refusal alarms innocent workloads trip per bit window — the
 * false-positive load the defender must tolerate before flagging.
 *
 * The headline shape: a single spy under SHARP sits at chance (its
 * walk can never displace the sender-owned line), K = 2 cannot wedge
 * the set and stays dead too, and only K >= 3 cooperating spies claw
 * leakage back — at a party alarm rate orders of magnitude above the
 * benign baseline.  That recovery-vs-detectability gradient is the
 * tradeoff this table quantifies.
 *
 * Determinism: the attack grid and the false-alarm grid after it seed
 * session (cell, t) by its flat index across both, strictly sequential
 * aggregation — the output
 * is byte-identical for any LRULEAK_THREADS (golden-snapshotted).
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

/** What one session contributes to its cell. */
struct SharpTrace : TrialTrace
{
    double error_rate = 0.0;
    std::uint64_t party_alarms = 0;  //!< sender + spy cores
    std::uint64_t benign_alarms = 0; //!< noise cores
    std::uint64_t forced = 0;
    std::uint64_t denied = 0;
};

/** One cell after pooling its trials. */
struct CellScore
{
    double error_rate = 0.0;    //!< mean over trials
    double bits_per_use = 0.0;  //!< pooled corrected MI
    leakage::Interval bpu_ci;
    double party_alarms_per_bit = 0.0;
    double benign_alarms_per_bit = 0.0;
    double forced_per_bit = 0.0;
    double denied_per_bit = 0.0;
};

class SharpDefense final : public Experiment
{
  public:
    std::string name() const override { return "sharp_defense"; }

    std::string
    description() const override
    {
        return "SHARP-protected LLC vs single- and multi-spy cross-core "
               "attacks: error rate, bits/use, and defender alarm / "
               "false-alarm rates per spy count x alarm threshold";
    }

    std::vector<ParamSpec>
    params() const override
    {
        return {
            ParamSpec::integer("bits", 24, "random message length"),
            ParamSpec::integer("repeats", 1,
                               "times the message is re-sent"),
            ParamSpec::integer("trials", 2,
                               "independent sessions pooled per cell"),
            ParamSpec::integer("resamples", 200,
                               "bootstrap resamples behind the 95% CIs"),
            ParamSpec::integer("noise", 1,
                               "benign background cores in the "
                               "idle-channel false-alarm baseline"),
            ParamSpec::str("spies", "1,2,3,4",
                           "comma-separated spy counts (receiver threads "
                           "on cores 1..K)"),
            ParamSpec::str("thresholds", "0,8,64",
                           "comma-separated SHARP alarm budgets; 0 = "
                           "detection only, no fill denial"),
            ParamSpec::str("policy", "LRU",
                           "LLC replacement policy (the paper's LRU "
                           "carrier by default)"),
            ParamSpec::integer("tr", 3000,
                               "per-spy sampling period (cycles)"),
            ParamSpec::integer("ts", 30'000,
                               "sender per-bit period (cycles)"),
            uarchParam("e5-2690"),
            seedParam(47),
        };
    }

    void
    run(const ParamMap &params, ResultSink &sink) const override
    {
        const auto seed = params.getUint("seed");
        const auto repeats = params.getUint32("repeats");
        const auto trials = params.getUint32("trials");
        const auto resamples =
            static_cast<std::size_t>(params.getUint("resamples"));
        const auto noise = params.getUint32("noise");
        const auto tr = params.getUint("tr");
        const auto ts = params.getUint("ts");
        const Bits message = randomBits(
            static_cast<std::size_t>(params.getUint("bits")), 20200416);
        const auto uarch = uarchFromParams(params);
        const auto spy_counts = parseUints(params, "spies");
        const auto thresholds = parseUints(params, "thresholds");
        const auto policy = parsePolicy(params);

        const std::uint32_t n_spies =
            static_cast<std::uint32_t>(spy_counts.size());
        const std::uint32_t n_thresh =
            static_cast<std::uint32_t>(thresholds.size());
        // Column 0 is SHARP off; column 1 + i is threshold i.
        const std::uint32_t n_cols = 1 + n_thresh;

        sink.note("=== sharp_defense: SHARP-protected LLC vs K-spy "
                  "cross-core LRU attack, " + uarch.name + " ===\n(" +
                  std::to_string(params.getUint("bits")) +
                  "-bit random string x" + std::to_string(repeats) + "; " +
                  std::to_string(trials) + " session(s) pooled per cell; "
                  "alarm rates are SHARP refusal\nevents per transmitted "
                  "bit on the colluding party cores (sender + spies); "
                  "the\nfalse-alarm baseline runs an idle channel with " +
                  std::to_string(noise) + " benign noise core(s) and "
                  "counts\nthe alarms innocents trip per bit window)");

        SessionConfig base;
        base.channel = ChannelId::XCoreLruAlg2;
        base.mode = SharingMode::CrossCore;
        base.uarch = uarch;
        base.llc_policy = policy;
        base.tr = tr;
        base.ts = ts;
        base.message = message;
        base.repeats = repeats;
        const auto setSharp = [&](SessionConfig &cfg, std::uint32_t col) {
            if (col > 0) {
                cfg.llc_secure = sim::SecureMode::Sharp;
                cfg.llc_alarm_threshold = thresholds[col - 1];
            }
        };
        const auto project = [](const SessionResult &res) {
            SharpTrace t{trialTrace(res), res.error_rate};
            // Cores 0..spies are the colluding parties (sender on core
            // 0, spy j on core 1 + j); everything past them is benign
            // noise.
            for (std::size_t c = 0; c < res.sharp_core_alarms.size(); ++c) {
                if (c <= res.spies)
                    t.party_alarms += res.sharp_core_alarms[c];
                else
                    t.benign_alarms += res.sharp_core_alarms[c];
            }
            t.forced = res.sharp_forced;
            t.denied = res.sharp_denied;
            return t;
        };
        // Sequential aggregation, one Report per cell.
        const auto scoreCells = [&](std::uint64_t boot_base) {
            return [&, boot_base](std::span<const SharpTrace> cell,
                                  std::uint32_t idx) {
                CellScore s;
                std::uint64_t party = 0, benign = 0, forced = 0,
                              denied = 0, bits_sent = 0;
                for (const SharpTrace &tt : cell) {
                    s.error_rate += tt.error_rate;
                    party += tt.party_alarms;
                    benign += tt.benign_alarms;
                    forced += tt.forced;
                    denied += tt.denied;
                    bits_sent += tt.sent.size();
                }
                const auto agg =
                    pooledLeakage(cell, resamples, boot_base + idx);
                s.error_rate /= trials;
                s.bits_per_use = agg.pooled.corrected_bits_per_use;
                s.bpu_ci = agg.bits_per_use_ci;
                const double denom = bits_sent ? double(bits_sent) : 1.0;
                s.party_alarms_per_bit = double(party) / denom;
                s.benign_alarms_per_bit = double(benign) / denom;
                s.forced_per_bit = double(forced) / denom;
                s.denied_per_bit = double(denied) / denom;
                return s;
            };
        };

        // The attack grid, session (cell, t) seeded by its flat index.
        SessionGrid attack(base, SeedRule::flat(seed));
        attack
            .over("spies", spy_counts, &SessionConfig::spies)
            .axis("sharp", n_cols, setSharp)
            .trials(trials);
        const auto score = attack.run(project).perCell(scoreCells(0x5a9));

        // Past it, seeded on: one idle-channel false-alarm cell per
        // threshold, with benign noise cores as the only other load.
        // An all-zero message leaves the channel idle, so every refusal
        // alarm in those sessions is a false positive.
        SessionConfig idle = base;
        idle.message = Bits(message.size(), 0);
        idle.noise_cores = std::max<std::uint32_t>(noise, 1);
        SessionGrid baseline(idle, SeedRule::flat(seed + attack.sessions()));
        baseline
            .axis("threshold", n_thresh,
                  [&](SessionConfig &cfg, std::uint32_t i) {
                      setSharp(cfg, 1 + i);
                  })
            .trials(trials);
        const auto idle_score = baseline.run(project).perCell(
            scoreCells(0x5a9 + attack.cells()));

        const auto cell = [&](std::uint32_t k,
                              std::uint32_t col) -> const CellScore & {
            return score.at({k, col});
        };
        const auto colToken = [&](std::uint32_t col) {
            return col == 0 ? std::string("off")
                            : "th" + std::to_string(thresholds[col - 1]);
        };

        // ----- attack side: error rate and bits/use per cell.
        std::vector<std::string> header{"Spies"};
        header.push_back("sharp off");
        for (std::uint32_t c = 1; c < n_cols; ++c)
            header.push_back("sharp th=" +
                             std::to_string(thresholds[c - 1]));

        Table err_table(header);
        Table bpu_table(header);
        for (std::uint32_t k = 0; k < n_spies; ++k) {
            std::vector<std::string> erow{std::to_string(spy_counts[k])};
            std::vector<std::string> brow{std::to_string(spy_counts[k])};
            for (std::uint32_t c = 0; c < n_cols; ++c) {
                erow.push_back(fmtDouble(cell(k, c).error_rate, 3));
                brow.push_back(fmtDouble(cell(k, c).bits_per_use, 3));
            }
            err_table.addRow(erow);
            bpu_table.addRow(brow);
        }
        sink.table("--- attack: edit-distance error rate ---", err_table);
        sink.table("--- attack: leakage, bits/use (pooled corrected MI) "
                   "---",
                   bpu_table);

        // ----- defense side: alarm economics of the SHARP cells.
        Table def_table({"Spies", "Threshold", "party alarms/bit",
                         "benign alarms/bit", "forced/bit",
                         "denied/bit"});
        for (std::uint32_t k = 0; k < n_spies; ++k) {
            for (std::uint32_t c = 1; c < n_cols; ++c) {
                const CellScore &s = cell(k, c);
                def_table.addRow(
                    {std::to_string(spy_counts[k]),
                     std::to_string(thresholds[c - 1]),
                     fmtDouble(s.party_alarms_per_bit, 2),
                     fmtDouble(s.benign_alarms_per_bit, 4),
                     fmtDouble(s.forced_per_bit, 2),
                     fmtDouble(s.denied_per_bit, 2)});
            }
        }
        sink.table("--- defense: SHARP alarm economics under attack ---",
                   def_table);

        // ----- defense side: what innocents cost the detector.
        Table fa_table({"Threshold", "benign alarms/bit",
                        "idle-party alarms/bit", "denied/bit"});
        for (std::uint32_t i = 0; i < n_thresh; ++i) {
            const CellScore &s = idle_score.at({i});
            fa_table.addRow({std::to_string(thresholds[i]),
                             fmtDouble(s.benign_alarms_per_bit, 4),
                             fmtDouble(s.party_alarms_per_bit, 4),
                             fmtDouble(s.denied_per_bit, 4)});
        }
        sink.table("--- defense: false-alarm baseline (idle channel, "
                   "benign noise load) ---",
                   fa_table);

        // Every cell as machine-checkable scalars.
        for (std::uint32_t k = 0; k < n_spies; ++k) {
            for (std::uint32_t c = 0; c < n_cols; ++c) {
                const std::string key = std::string("s") +
                                        std::to_string(spy_counts[k]) +
                                        "_" + colToken(c);
                const CellScore &s = cell(k, c);
                sink.scalar("err_" + key, s.error_rate);
                sink.scalar("bpu_" + key, s.bits_per_use);
                if (c > 0) {
                    sink.scalar("alarms_party_" + key,
                                s.party_alarms_per_bit);
                    sink.scalar("alarms_benign_" + key,
                                s.benign_alarms_per_bit);
                    sink.scalar("denied_" + key, s.denied_per_bit);
                }
            }
        }
        for (std::uint32_t i = 0; i < n_thresh; ++i)
            sink.scalar("falarm_th" + std::to_string(thresholds[i]),
                        idle_score.at({i}).benign_alarms_per_bit);

        sink.note("\nReading the scorecard: under SHARP a single spy "
                  "sits at chance error and ~0\nbits/use — its evictions "
                  "of the sender-owned line are refused outright — and "
                  "K = 2\ncannot wedge the set; K >= 3 teams running the "
                  "pin-slices protocol recover the\nchannel, but every "
                  "churn round is a refusal alarm: the party alarm rate "
                  "runs\norders of magnitude above the benign baseline, "
                  "so the defender detects the team\nlong before the "
                  "message ends.  A positive threshold converts "
                  "persistent offenders'\nalarms into fill denials "
                  "(denied/bit) at zero benign cost while the benign "
                  "rate\nstays under the budget.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(SharpDefense)

} // namespace

} // namespace lruleak::experiments
