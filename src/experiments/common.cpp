/**
 * @file
 * Shared experiment-registration helpers.
 */

#include "experiments/common.hpp"

#include "channel/session.hpp"
#include "core/trial_runner.hpp"

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

std::vector<channel::ChannelId>
parseChannels(const std::string &list)
{
    std::vector<channel::ChannelId> out;
    std::string token;
    auto flush = [&] {
        if (token.empty())
            return;
        try {
            out.push_back(channel::channelIdFromName(token));
        } catch (const std::invalid_argument &e) {
            throw core::ParamError(std::string("parameter 'channels': ") +
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
        throw core::ParamError(
            "parameter 'channels': at least one channel is required");
    return out;
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

std::vector<double>
timeslicedGrid(const timing::Uarch &uarch, std::span<const std::uint64_t> trs,
               std::span<const std::uint32_t> ds, std::uint64_t max_samples,
               std::uint64_t seed, unsigned threads)
{
    return core::runTrials(
        static_cast<std::uint32_t>(2 * trs.size() * ds.size()), seed,
        [&](std::uint32_t idx, sim::Xoshiro256 &) {
            channel::SessionConfig cfg;
            cfg.uarch = uarch;
            cfg.mode = channel::SharingMode::TimeSliced;
            cfg.d = ds[idx % ds.size()];
            cfg.tr = trs[idx / ds.size() % trs.size()];
            cfg.encode_gap = 20'000;
            cfg.max_samples = max_samples;
            cfg.seed = seed + cfg.d;
            const auto bit = idx / (ds.size() * trs.size());
            return channel::sessionPercentOnes(cfg, std::uint8_t(bit));
        },
        threads);
}

void
timeslicedTables(core::ResultSink &sink, const core::ParamMap &params,
                 const timing::Uarch &uarch,
                 std::span<const std::uint64_t> trs,
                 std::span<const std::uint32_t> ds)
{
    std::vector<std::string> header{"Tr (x1e6)"};
    for (const std::uint32_t d : ds)
        header.push_back("d=" + std::to_string(d));
    const auto cells =
        timeslicedGrid(uarch, trs, ds, params.getUint("measurements"),
                       params.getUint("seed"));
    auto cell = cells.begin();
    for (int bit : {0, 1}) {
        core::Table table(header);
        for (const std::uint64_t tr : trs) {
            std::vector<std::string> row{std::to_string(tr / 1'000'000)};
            for (std::size_t j = 0; j < ds.size(); ++j)
                row.push_back(core::fmtPercent(*cell++));
            table.addRow(row);
        }
        sink.table("--- Sender constantly sending " + std::to_string(bit) +
                       " ---",
                   table);
    }
}

} // namespace lruleak::experiments
