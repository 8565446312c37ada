/**
 * @file
 * The leakage matrix: channel_matrix upgraded from "does the channel
 * work" (edit-distance error) to "how much does it leak" (empirical
 * mutual information and capacity).
 *
 * Every cell runs `trials` independent channel::Session transmissions
 * with symbol collection on, pools their aligned (sent, decoded)
 * pairs through leakage::Report, and reports
 *
 *   - bits/use: Miller-Madow-corrected mutual information of the
 *     pooled confusion matrix (input {0,1}, output {0,1,erasure});
 *   - a 95% bootstrap CI over the per-trial estimates;
 *   - Blahut-Arimoto capacity of the empirical channel;
 *   - bits/second: bits/use x the session's raw symbol rate.
 *
 * Axes: every ChannelId x every sharing mode x the carrier replacement
 * policies, plus a secure-mode column over the hyper-threaded cells —
 * DAWG and RandomFill L1s (CacheConfig::secure) and both PL-cache
 * modes — which turns the repo's defenses into entries on one leakage
 * scale.  DAWG partitions the L1 ways and replacement state between
 * the sender and receiver domains, so the L1-carried channels should
 * score ~0 bits/use under it.  A final section runs the cross-core
 * column under a SHARP-protected LLC (sim::SecureMode::Sharp), whose
 * eviction filtering refuses the single receiver's displacement of the
 * sender-owned line — the x-core LRU channel's bits/use collapses to
 * ~0 (the multi-spy counter-attack is scored by `sharp_defense`).
 *
 * Determinism: one SessionGrid sweep per section with
 * per-session seeds derived only from the flat index, then strictly
 * sequential aggregation — any LRULEAK_THREADS yields byte-identical
 * output, which the golden snapshot pins.
 */

#include "experiments/common.hpp"

namespace lruleak::experiments {

namespace {

using namespace lruleak::core;
using namespace lruleak::channel;

/** Secure-mode column of the hyper-threaded section. */
struct SecurePoint
{
    const char *token;
    sim::SecureMode l1_secure;
    sim::PlMode pl_mode;
    bool lock_line;
};

constexpr SecurePoint kSecure[] = {
    {"dawg", sim::SecureMode::Dawg, sim::PlMode::Disabled, false},
    {"randomfill", sim::SecureMode::RandomFill, sim::PlMode::Disabled,
     false},
    {"pl_original", sim::SecureMode::None, sim::PlMode::Original, true},
    {"pl_fixed", sim::SecureMode::None, sim::PlMode::FixedLruLock, true},
};

class LeakageMatrix final : public Experiment
{
  public:
    std::string name() const override { return "leakage_matrix"; }

    std::string
    description() const override
    {
        return "empirical leakage instrument: bits/use (Miller-Madow "
               "MI), Blahut-Arimoto capacity and bits/s per channel x "
               "sharing mode x carrier policy x secure-cache mode";
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
            ParamSpec::integer("quantum", 30'000,
                               "time-sliced cells: scheduling quantum in "
                               "cycles (scaled OS model)"),
            policiesParam("treeplru,lru,srrip"),
            uarchParam("e5-2690"),
            seedParam(31),
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
        const auto quantum = params.getUint("quantum");
        const Bits message = randomBits(
            static_cast<std::size_t>(params.getUint("bits")), 20200415);
        const auto uarch = uarchFromParams(params);
        const auto policies = parsePolicies(params);

        const auto &channels = allChannelIds();
        const std::uint32_t n_modes =
            static_cast<std::uint32_t>(std::size(kModePoints));
        const std::uint32_t n_channels =
            static_cast<std::uint32_t>(channels.size());
        const std::uint32_t n_policies =
            static_cast<std::uint32_t>(policies.size());
        // One Report per cell, bootstrap seed a function of the cell
        // index only.
        const auto pooled = [&](std::uint64_t boot_base) {
            return [&, boot_base](std::span<const TrialTrace> cell,
                                  std::uint32_t idx) {
                return pooledLeakage(cell, resamples, boot_base + idx);
            };
        };
        SessionConfig base;
        base.uarch = uarch;
        base.message = message;
        base.repeats = repeats;

        sink.note("=== leakage matrix: empirical bits/use and bits/s "
                  "per channel x sharing mode x policy, " + uarch.name +
                  " ===\n(" + std::to_string(params.getUint("bits")) +
                  "-bit random string x" + std::to_string(repeats) +
                  "; " + std::to_string(trials) + " session(s) pooled "
                  "per cell; MI is Miller-Madow corrected over the "
                  "{0,1}->{0,1,erasure}\nconfusion matrix; capacity is "
                  "Blahut-Arimoto over the empirical conditionals; CIs "
                  "are 95%\npercentile bootstrap over trials)");

        // ----- section A: channel x mode x policy.
        // One flat sweep; session (cell, t) sits at idx = cell*trials+t
        // and is seeded by idx alone, so the table is independent of
        // LRULEAK_THREADS.
        SessionGrid matrix(base, SeedRule::flat(seed));
        matrix.policies(policies)
            .over("channel", channels, &SessionConfig::channel)
            .over("mode", kModePoints, [&](SessionConfig &cfg,
                                           const ModePoint &point) {
                point.apply(cfg);
                if (point.mode == SharingMode::TimeSliced)
                    scaledTimeSlice(cfg, quantum);
            })
            .trials(trials);
        const std::uint32_t cells = matrix.cells();
        const auto agg = matrix.run(trialTrace).perCell(pooled(97));

        for (std::uint32_t m = 0; m < n_modes; ++m) {
            Table table(policyHeader(policies));
            for (std::uint32_t c = 0; c < n_channels; ++c) {
                std::vector<std::string> row{
                    channelDisplayName(channels[c])};
                for (std::uint32_t p = 0; p < n_policies; ++p) {
                    const auto &a = agg.at({p, c, m});
                    row.push_back(
                        fmtDouble(a.pooled.corrected_bits_per_use, 3) +
                        " b/u @ " +
                        fmtDouble(a.pooled.bits_per_second, 0) + " b/s");
                }
                table.addRow(row);
            }
            sink.table(
                "--- sharing mode: " +
                    std::string(sharingModeToken(kModePoints[m].mode)) +
                    " (Tr=" + std::to_string(kModePoints[m].tr) +
                    ", Ts=" + std::to_string(kModePoints[m].ts) + ") ---",
                table);
        }

        // Every cell as machine-checkable scalars (bits/use, bits/s).
        for (std::uint32_t p = 0; p < n_policies; ++p) {
            const std::string pol =
                std::string(sim::replPolicyName(policies[p]));
            for (std::uint32_t c = 0; c < n_channels; ++c) {
                for (std::uint32_t m = 0; m < n_modes; ++m) {
                    const auto &a = agg.at({p, c, m});
                    const std::string key =
                        std::string(channelIdToken(channels[c])) + "_" +
                        std::string(sharingModeToken(kModePoints[m].mode)) +
                        "_" + pol;
                    sink.scalar("bpu_" + key,
                                a.pooled.corrected_bits_per_use);
                    sink.scalar("bps_" + key, a.pooled.bits_per_second);
                }
            }
        }

        // Detail view of the headline column: hyper-threaded cells on
        // the first listed policy, with CIs and capacity.
        Table detail({"Channel", "bits/use", "95% CI", "capacity b/u",
                      "bits/s", "pairs"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            const auto &a = agg.at({0, c, 0});
            detail.addRow(
                {channelDisplayName(channels[c]),
                 fmtDouble(a.pooled.corrected_bits_per_use, 4),
                 std::string("[") + fmtDouble(a.bits_per_use_ci.lo, 4) +
                     ", " + fmtDouble(a.bits_per_use_ci.hi, 4) + "]",
                 fmtDouble(a.pooled.capacity_bits_per_use, 4),
                 fmtDouble(a.pooled.bits_per_second, 0),
                 std::to_string(a.pairs)});
            sink.scalar("capacity_" +
                            std::string(channelIdToken(channels[c])) +
                            "_hyperthreaded",
                        a.pooled.capacity_bits_per_use);
        }
        sink.table("--- hyperthreaded detail (" +
                       std::string(sim::replPolicyName(policies[0])) +
                       "): corrected MI, bootstrap CI, capacity ---",
                   detail);

        // ----- section B: secure-cache modes over the hyper-threaded
        // column (first listed policy).  DAWG / RandomFill act on the
        // L1 (CacheConfig::secure); the PL modes lock the sender's
        // line.  The "none" baseline is section A's cell.
        const std::uint64_t sec_base = seed + cells * trials;
        SessionConfig sec_cfg = base;
        kModePoints[0].apply(sec_cfg);
        sec_cfg.l1_policy = policies[0];
        SessionGrid secure(sec_cfg, SeedRule::flat(sec_base));
        secure.over("channel", channels, &SessionConfig::channel)
            .over("secure", kSecure, [](SessionConfig &cfg,
                                        const SecurePoint &sp) {
                cfg.l1_secure = sp.l1_secure;
                cfg.pl_mode = sp.pl_mode;
                cfg.sender_locks_line = sp.lock_line;
            })
            .trials(trials);
        const auto sec_agg = secure.run(trialTrace).perCell(pooled(0x5ec0));

        Table sec_table({"Channel", "none", "dawg", "randomfill",
                         "pl_original", "pl_fixed"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            std::vector<std::string> row{channelDisplayName(channels[c])};
            row.push_back(fmtDouble(
                agg.at({0, c, 0}).pooled.corrected_bits_per_use, 3));
            for (std::uint32_t s = 0; s < std::size(kSecure); ++s) {
                const auto &a = sec_agg.at({c, s});
                row.push_back(fmtDouble(
                    a.pooled.corrected_bits_per_use, 3));
                const std::string key =
                    std::string(channelIdToken(channels[c])) + "_" +
                    kSecure[s].token;
                sink.scalar("bpu_" + key,
                            a.pooled.corrected_bits_per_use);
                sink.scalar("bps_" + key, a.pooled.bits_per_second);
            }
            sec_table.addRow(row);
        }
        sink.table("--- secure-cache modes, bits/use (hyperthreaded, " +
                       std::string(sim::replPolicyName(policies[0])) +
                       ") ---",
                   sec_table);

        // ----- section C: SHARP on the shared LLC over the cross-core
        // column (first listed policy, single receiver, threshold 0 —
        // the pure detector already refuses every cross-owner eviction,
        // which is what kills the single-spy channel).  The "none"
        // baseline is section A's cross-core cell.  The multi-spy
        // counter-attack and the alarm economics live in the dedicated
        // `sharp_defense` experiment.
        const std::uint32_t xc_mode = n_modes - 1; // CrossCore
        SessionConfig sharp_cfg = base;
        kModePoints[xc_mode].apply(sharp_cfg);
        sharp_cfg.llc_secure = sim::SecureMode::Sharp;
        SessionGrid sharp(sharp_cfg,
                          SeedRule::flat(sec_base + secure.sessions()));
        sharp.policies({policies[0]})
            .over("channel", channels, &SessionConfig::channel)
            .trials(trials);
        const auto sharp_agg = sharp.run(trialTrace).perCell(pooled(0x5a9f));

        Table sharp_table({"Channel", "none", "sharp"});
        for (std::uint32_t c = 0; c < n_channels; ++c) {
            const auto &a = sharp_agg.at({0, c});
            sharp_table.addRow(
                {channelDisplayName(channels[c]),
                 fmtDouble(
                     agg.at({0, c, xc_mode}).pooled.corrected_bits_per_use,
                     3),
                 fmtDouble(a.pooled.corrected_bits_per_use, 3)});
            const std::string key =
                std::string(channelIdToken(channels[c])) + "_sharp";
            sink.scalar("bpu_" + key, a.pooled.corrected_bits_per_use);
            sink.scalar("bps_" + key, a.pooled.bits_per_second);
        }
        sink.table("--- SHARP-protected LLC, bits/use (crosscore, " +
                       std::string(sim::replPolicyName(policies[0])) +
                       ") ---",
                   sharp_table);

        sink.note("\nReading the matrix: a cell near 1.0 b/u leaks its "
                  "full input bit every use; the\nsecure-mode columns "
                  "show what each defense buys — DAWG partitions the "
                  "L1's ways\nand replacement state per thread domain, "
                  "so every L1-carried channel drops to ~0\nwhile the "
                  "memory-latency and LLC channels ride straight "
                  "through; the original PL\ndesign still updates LRU "
                  "state on locked hits, which is the residue Alg. 2 "
                  "keeps.\nThe SHARP row plays the same role for the "
                  "shared LLC: refusing cross-owner\nevictions severs "
                  "the x-core carrier for a lone receiver.  bits/s "
                  "folds the\nsession's real pace in: a clean but slow "
                  "channel can leak less per second than a\nnoisy fast "
                  "one.");
    }
};

LRULEAK_REGISTER_EXPERIMENT(LeakageMatrix)

} // namespace

} // namespace lruleak::experiments
