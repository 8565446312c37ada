/**
 * @file
 * Shared experiment-registration helpers and the session grid.
 */

#include "experiments/common.hpp"

#include <stdexcept>

namespace lruleak::experiments {

timing::Uarch
uarchFromParams(const core::ParamMap &params)
{
    try {
        return timing::uarchFromName(params.getStr("uarch"));
    } catch (const std::invalid_argument &e) {
        throw core::ParamError(std::string("parameter 'uarch': ") +
                               e.what());
    }
}

namespace {

/**
 * Split the comma-separated list of parameter @p param, skipping spaces
 * and empty tokens, and parse each token; a bad token or an empty list
 * throws ParamError naming @p param.
 */
template <typename Parse>
auto
parseList(const std::string &list, const std::string &param,
          const std::string &what, Parse parse)
{
    std::vector<decltype(parse(list))> out;
    std::string token;
    auto flush = [&] {
        if (token.empty())
            return;
        try {
            out.push_back(parse(token));
        } catch (const std::invalid_argument &e) {
            throw core::ParamError("parameter '" + param + "': " +
                                   e.what());
        }
        token.clear();
    };
    for (char c : list) {
        if (c == ',')
            flush();
        else if (c != ' ')
            token += c;
    }
    flush();
    if (out.empty())
        throw core::ParamError("parameter '" + param + "': at least one " +
                               what + " is required");
    return out;
}

} // namespace

std::vector<channel::ChannelId>
parseChannels(const std::string &list)
{
    return parseList(list, "channels", "channel", [](const std::string &t) {
        return channel::channelIdFromName(t);
    });
}

std::vector<sim::ReplPolicyKind>
parsePolicyList(const std::string &list, const std::string &param)
{
    return parseList(list, param, "replacement policy",
                     [](const std::string &t) {
                         return sim::replPolicyFromName(t);
                     });
}

std::vector<sim::ReplPolicyKind>
parsePolicies(const core::ParamMap &params, const std::string &param)
{
    return parsePolicyList(params.getStr(param), param);
}

sim::ReplPolicyKind
parsePolicy(const core::ParamMap &params, const std::string &param)
{
    try {
        return sim::replPolicyFromName(params.getStr(param));
    } catch (const std::invalid_argument &e) {
        throw core::ParamError("parameter '" + param + "': " + e.what());
    }
}

std::vector<std::uint32_t>
parseUints(const core::ParamMap &params, const std::string &param)
{
    return parseList(params.getStr(param), param, "value",
                     [](const std::string &t) {
                         return static_cast<std::uint32_t>(std::stoul(t));
                     });
}

std::vector<std::string>
policyHeader(const std::vector<sim::ReplPolicyKind> &policies)
{
    std::vector<std::string> header{"Channel"};
    for (auto p : policies)
        header.push_back(std::string(sim::replPolicyName(p)));
    return header;
}

std::vector<double>
sampleLatencies(const std::vector<channel::Sample> &s, std::size_t limit)
{
    std::vector<double> out;
    out.reserve(std::min(limit, s.size()));
    for (std::size_t i = 0; i < s.size() && i < limit; ++i)
        out.push_back(s[i].latency);
    return out;
}

void
scaledTimeSlice(channel::SessionConfig &cfg, std::uint64_t quantum)
{
    cfg.tslice.quantum = quantum;
    cfg.tslice.quantum_jitter = quantum / 2;
    cfg.tslice.tick_period = 100'000;
}

std::uint32_t
gridIndex(std::span<const std::string> names,
          std::span<const std::uint32_t> sizes,
          std::initializer_list<std::uint32_t> coords)
{
    if (coords.size() != sizes.size())
        throw std::out_of_range("SessionGrid: " +
                                std::to_string(coords.size()) +
                                " coordinates for " +
                                std::to_string(sizes.size()) + " axes");
    std::uint32_t index = 0;
    std::size_t a = 0;
    for (const std::uint32_t c : coords) {
        if (c >= sizes[a])
            throw std::out_of_range("SessionGrid: coordinate " +
                                    std::to_string(c) + " past axis '" +
                                    names[a] + "' of " +
                                    std::to_string(sizes[a]));
        index = index * sizes[a++] + c;
    }
    return index;
}

SessionGrid &
SessionGrid::axis(std::string name, std::uint32_t size, Setter set)
{
    names_.push_back(std::move(name));
    sizes_.push_back(size);
    setters_.push_back(std::move(set));
    return *this;
}

SessionGrid &
SessionGrid::policies(std::vector<sim::ReplPolicyKind> policies)
{
    if (!policies_.empty())
        throw std::logic_error("SessionGrid: a second policy axis");
    policy_axis_ = sizes_.size();
    policies_ = std::move(policies);
    return axis("policy", static_cast<std::uint32_t>(policies_.size()),
                nullptr);
}

std::uint32_t
SessionGrid::cells() const
{
    std::uint32_t n = 1;
    for (const std::uint32_t size : sizes_)
        n *= size;
    return n;
}

channel::SessionConfig
SessionGrid::config(std::uint32_t session) const
{
    channel::SessionConfig cfg = base_;
    // Decode the cell innermost axis first, then set outermost first.
    std::vector<std::uint32_t> coord(sizes_.size());
    std::uint32_t rest = session / trials_;
    for (std::size_t a = sizes_.size(); a-- > 0; rest /= sizes_[a])
        coord[a] = rest % sizes_[a];
    for (std::size_t a = 0; a < sizes_.size(); ++a) {
        if (setters_[a])
            setters_[a](cfg, coord[a]);
    }
    if (!policies_.empty()) {
        const auto policy = policies_[coord[policy_axis_]];
        if (channel::sessionCarrier(cfg) == channel::Carrier::Llc)
            cfg.llc_policy = policy;
        else
            cfg.l1_policy = policy;
    }
    switch (seeds_.kind) {
      case SeedRule::Kind::Flat:
        cfg.seed = seeds_.base + session / seeds_.stride;
        break;
      case SeedRule::Kind::Depth:
        cfg.seed = seeds_.base + cfg.d;
        break;
      case SeedRule::Kind::Constant:
        cfg.seed = seeds_.base;
        break;
    }
    return cfg;
}

std::pair<double, double>
errorAndRate(const channel::SessionResult &res)
{
    return {res.error_rate, res.kbps};
}

TrialTrace
trialTrace(const channel::SessionResult &res)
{
    return {res.sent, res.decoded_symbols, res.kbps};
}

SessionTrace
sessionTrace(const channel::SessionResult &res)
{
    return {sampleLatencies(res.samples, 200), res.received,
            res.threshold,                     res.kbps,
            res.error_rate,                    res.back_invalidations,
            res.receiver_l1.missRate()};
}

void
emitTrace(core::ResultSink &sink, const std::string &title,
          const SessionTrace &trace, bool decoded)
{
    sink.series("\n" + title, trace.latencies, 8);
    if (decoded)
        sink.text("", "decoded: " + channel::bitsToString(trace.received));
}

SessionGrid
timeslicedGrid(const timing::Uarch &uarch, std::span<const std::uint64_t> trs,
               std::span<const std::uint32_t> ds, std::uint64_t max_samples,
               std::uint64_t seed)
{
    channel::SessionConfig base;
    base.uarch = uarch;
    base.mode = channel::SharingMode::TimeSliced;
    base.encode_gap = 20'000;
    base.max_samples = max_samples;
    const std::uint8_t bits[] = {0, 1};
    SessionGrid grid(base, SeedRule::depth(seed));
    grid.over("bit", bits, channel::sendConstantly)
        .over("tr", trs, &channel::SessionConfig::tr)
        .over("d", ds, &channel::SessionConfig::d);
    return grid;
}

} // namespace lruleak::experiments
