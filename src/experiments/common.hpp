/**
 * @file
 * Shared helpers for the experiment registrations: common ParamSpec
 * builders (seed, CPU model, channel and policy lists), the sharing-mode
 * operating points, and SessionGrid — the one sweep of channel::Sessions
 * every multi-session experiment runs on.
 */

#ifndef LRULEAK_EXPERIMENTS_COMMON_HPP
#define LRULEAK_EXPERIMENTS_COMMON_HPP

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "channel/channel_factory.hpp"
#include "channel/decoder.hpp"
#include "channel/session.hpp"
#include "core/experiment.hpp"
#include "core/trial_runner.hpp"
#include "leakage/report.hpp"
#include "timing/uarch.hpp"

namespace lruleak::experiments {

/** The standard RNG-seed parameter. */
inline core::ParamSpec
seedParam(std::int64_t def)
{
    return core::ParamSpec::integer("seed", def,
                                    "RNG seed for the measurement");
}

/**
 * CPU-model parameter over the paper's Table III machines.  A Str (not
 * Choice) spec so the aliases timing::uarchFromName documents
 * ("skylake", "zen", case-insensitive) work from the CLI; validation
 * happens in uarchFromParams.
 */
inline core::ParamSpec
uarchParam(const std::string &def)
{
    std::string valid;
    for (const auto &t : timing::uarchTokens()) {
        if (!valid.empty())
            valid += ", ";
        valid += t;
    }
    return core::ParamSpec::str("uarch", def,
                                "CPU model to simulate (" + valid +
                                    "; microarch aliases like skylake/"
                                    "zen also accepted)");
}

/** Parse the uarchParam value; throws ParamError on a bad name. */
timing::Uarch uarchFromParams(const core::ParamMap &params);

/** Comma-separated channel list parameter (see channelIdFromName). */
inline core::ParamSpec
channelsParam(const std::string &def)
{
    std::string valid;
    for (auto id : channel::allChannelIds()) {
        if (!valid.empty())
            valid += ", ";
        valid += channel::channelIdToken(id);
    }
    return core::ParamSpec::str("channels", def,
                                "comma-separated channel list (" + valid +
                                    ")");
}

/** Parse the channelsParam value; throws ParamError on a bad name. */
std::vector<channel::ChannelId> parseChannels(const std::string &list);

/** Comma-separated replacement-policy list parameter. */
inline core::ParamSpec
policiesParam(const std::string &def,
              const std::string &help = "comma-separated carrier "
                                        "replacement-policy list")
{
    return core::ParamSpec::str("policies", def, help);
}

/**
 * Parse the comma-separated policy list @p list with parseChannels'
 * token rules (spaces and empty tokens skipped, at least one required);
 * a bad name throws ParamError naming @p param.
 */
std::vector<sim::ReplPolicyKind>
parsePolicyList(const std::string &list, const std::string &param);

/** The policy list of parameter @p param, likewise. */
std::vector<sim::ReplPolicyKind>
parsePolicies(const core::ParamMap &params,
              const std::string &param = "policies");

/** The single replacement policy of parameter @p param, likewise. */
sim::ReplPolicyKind parsePolicy(const core::ParamMap &params,
                                const std::string &param = "policy");

/** The comma-separated unsigned list of parameter @p param, likewise. */
std::vector<std::uint32_t> parseUints(const core::ParamMap &params,
                                      const std::string &param);

/** A per-policy table header: "Channel", then each policy's name. */
std::vector<std::string>
policyHeader(const std::vector<sim::ReplPolicyKind> &policies);

/** First @p limit sample latencies as a plottable series. */
std::vector<double> sampleLatencies(const std::vector<channel::Sample> &s,
                                    std::size_t limit);

/**
 * A sharing mode at its protocol periods.  kModePoints holds the three
 * operating points of the cross-mode sweeps: the paper's single-core
 * one, and the cross-core one (the LLC round trip needs the longer Ts).
 */
struct ModePoint
{
    channel::SharingMode mode;
    std::uint64_t tr;
    std::uint64_t ts;

    void
    apply(channel::SessionConfig &cfg) const
    {
        cfg.mode = mode;
        cfg.tr = tr;
        cfg.ts = ts;
    }
};

inline constexpr ModePoint kModePoints[] = {
    {channel::SharingMode::HyperThreaded, 600, 6000},
    {channel::SharingMode::TimeSliced, 600, 6000},
    {channel::SharingMode::CrossCore, 3000, 30000},
};

/** The scaled OS model of a time-sliced cell: a @p quantum-cycle slice,
 *  half a quantum of jitter and a ~25 us timer tick. */
void scaledTimeSlice(channel::SessionConfig &cfg, std::uint64_t quantum);

/**
 * How a SessionGrid seeds session s = cell * trials + trial: Flat is
 * base + s / stride (a stride > 1 shares one seed across that many
 * consecutive sessions), Depth is base + the cell's receiver init depth
 * d, Constant is base.  Each experiment keeps the rule its goldens were
 * recorded with.
 */
struct SeedRule
{
    enum class Kind
    {
        Flat,
        Depth,
        Constant
    };
    Kind kind;
    std::uint64_t base;
    std::uint32_t stride = 1;

    static SeedRule
    flat(std::uint64_t base, std::uint32_t stride = 1)
    {
        return {Kind::Flat, base, stride};
    }
    static SeedRule depth(std::uint64_t base) { return {Kind::Depth, base}; }
    static SeedRule
    constant(std::uint64_t seed)
    {
        return {Kind::Constant, seed};
    }
};

/** Flat index of @p coords (outermost first) over axes @p names of
 *  @p sizes; throws std::out_of_range, naming the axis, on a wrong
 *  count or a value past its axis. */
std::uint32_t gridIndex(std::span<const std::string> names,
                        std::span<const std::uint32_t> sizes,
                        std::initializer_list<std::uint32_t> coords);

/** A SessionGrid's kept values in flat order, addressed by axis index. */
template <typename T>
struct GridResults
{
    std::vector<std::string> names;   //!< axes, outermost first
    std::vector<std::uint32_t> sizes; //!< their sizes
    std::uint32_t trials = 1;
    std::vector<T> values;

    /** Session @p trial of the cell at @p coords. */
    const T &
    at(std::initializer_list<std::uint32_t> coords,
       std::uint32_t trial = 0) const
    {
        return values.at(gridIndex(names, sizes, coords) * trials + trial);
    }

    /** Reduce each cell in flat order, f(its trials, its flat index);
     *  the reductions keep the axes. */
    template <typename F>
    auto
    perCell(F f) const
    {
        GridResults<std::invoke_result_t<F &, std::span<const T>,
                                         std::uint32_t>>
            out{names, sizes, 1, {}};
        for (std::uint32_t c = 0; c * trials < values.size(); ++c)
            out.values.push_back(
                f(std::span(values).subspan(c * trials, trials), c));
        return out;
    }
};

/**
 * One flat core::runTrials sweep of channel::Sessions.
 *
 * Named axes, outermost first, each set their field of a base
 * SessionConfig; the trials of a cell are the innermost index, so
 * session s is trial s % trials of cell s / trials.  The policy axis
 * owns the carrier rule: its value goes to the shared LLC when the
 * cell's channel and mode carry the state there, else to the L1, once
 * every other axis has set the config.  The seed rule sets the seed
 * last.  run() projects each SessionResult in its worker, so only the
 * kept value outlives the session; the values are identical for any
 * worker count.
 */
class SessionGrid
{
  public:
    using Setter =
        std::function<void(channel::SessionConfig &, std::uint32_t)>;

    SessionGrid(channel::SessionConfig base, SeedRule seeds)
        : base_(std::move(base)), seeds_(seeds)
    {
    }

    /** Append an axis of @p size values; value i is set(cfg, i). */
    SessionGrid &axis(std::string name, std::uint32_t size, Setter set);

    /** Append an axis over a copy of @p values; value i is
     *  set(cfg, values[i]), or cfg.*set = values[i] for a field. */
    template <typename Values, typename Set>
    SessionGrid &
    over(std::string name, const Values &values, Set set)
    {
        std::vector copy(std::begin(values), std::end(values));
        const auto size = static_cast<std::uint32_t>(copy.size());
        return axis(std::move(name), size,
                    [copy = std::move(copy),
                     set](channel::SessionConfig &cfg, std::uint32_t i) {
                        if constexpr (std::is_member_object_pointer_v<Set>)
                            cfg.*set = copy[i];
                        else
                            set(cfg, copy[i]);
                    });
    }

    /** Append the swept-policy axis (at most one). */
    SessionGrid &policies(std::vector<sim::ReplPolicyKind> policies);

    /** Sessions per cell (default 1). */
    SessionGrid &
    trials(std::uint32_t per_cell)
    {
        trials_ = per_cell;
        return *this;
    }

    std::uint32_t cells() const;
    std::uint32_t sessions() const { return cells() * trials_; }

    /** Session @p session's config, built but not run. */
    channel::SessionConfig config(std::uint32_t session) const;

    /** Run every session on @p threads workers (0 = the default),
     *  keeping project(result). */
    template <typename Project>
    auto
    run(Project project, unsigned threads = 0) const
    {
        // Sessions seed themselves; the trial stream goes unused.
        auto values = core::runTrials(
            sessions(), 0,
            [&](std::uint32_t s, sim::Xoshiro256 &) {
                return project(channel::runSession(config(s)));
            },
            threads);
        return GridResults<typename decltype(values)::value_type>{
            names_, sizes_, trials_, std::move(values)};
    }

  private:
    channel::SessionConfig base_;
    SeedRule seeds_;
    std::uint32_t trials_ = 1;
    std::vector<std::string> names_;
    std::vector<std::uint32_t> sizes_;
    std::vector<Setter> setters_;
    std::vector<sim::ReplPolicyKind> policies_;
    std::size_t policy_axis_ = 0; //!< meaningful with policies_ set
};

/** The projection that keeps a session's (error rate, kbps). */
std::pair<double, double> errorAndRate(const channel::SessionResult &res);

/** What one session contributes to a pooled leakage score. */
struct TrialTrace
{
    channel::Bits sent;
    channel::Bits decoded;
    double kbps = 0.0;
};

/** The projection that keeps a session's TrialTrace. */
TrialTrace trialTrace(const channel::SessionResult &res);

/** Pool a cell's trials (TrialTraces or structs derived from one) into
 *  one leakage::Report whose bootstrap stream is seeded @p boot_seed. */
template <typename Trials>
leakage::Aggregate
pooledLeakage(const Trials &trials, std::size_t resamples,
              std::uint64_t boot_seed)
{
    leakage::Report report({.resamples = resamples, .seed = boot_seed});
    for (const TrialTrace &t : trials)
        report.addTrial(t.sent, t.decoded, t.kbps * 1000.0);
    return report.aggregate();
}

/** What a receiver-trace figure keeps of one session. */
struct SessionTrace
{
    std::vector<double> latencies; //!< the first 200 samples
    channel::Bits received;
    std::uint32_t threshold = 0;
    double kbps = 0.0;
    double error_rate = 0.0;
    std::uint64_t back_invalidations = 0;
    double receiver_l1_miss_rate = 0.0;
};

/** The projection that keeps a session's SessionTrace. */
SessionTrace sessionTrace(const channel::SessionResult &res);

/** Emit @p trace as a series titled "\n" + @p title, then (if
 *  @p decoded) its decoded bits. */
void emitTrace(core::ResultSink &sink, const std::string &title,
               const SessionTrace &trace, bool decoded = true);

/**
 * The time-sliced Algorithm 1 grid of Figs. 6, 8 and 15, axes
 * (bit, Tr, d): each cell is one Session whose sender constantly sends
 * the bit, seeded @p seed + d.  Its projection is channel::percentOnes.
 */
SessionGrid timeslicedGrid(const timing::Uarch &uarch,
                           std::span<const std::uint64_t> trs,
                           std::span<const std::uint32_t> ds,
                           std::uint64_t max_samples, std::uint64_t seed);

} // namespace lruleak::experiments

#endif // LRULEAK_EXPERIMENTS_COMMON_HPP
