/**
 * @file
 * The `lruleak bench` summary: per-lane median, min and max over the
 * repeats, the --check floors applied to the medians, and what the
 * channel-bit lanes' sessions decode.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "channel/session.hpp"
#include "core/bench.hpp"

using namespace lruleak::core;

TEST(BenchSummary, LaneRateIsMedianMinAndMax)
{
    const LaneRate odd = laneRate({5.0, 1.0, 9.0, 3.0, 7.0});
    EXPECT_EQ(odd.median, 5.0);
    EXPECT_EQ(odd.min, 1.0);
    EXPECT_EQ(odd.max, 9.0);

    const LaneRate even = laneRate({4.0, 1.0, 2.0, 10.0});
    EXPECT_EQ(even.median, 3.0); // the mean of the middle two
    EXPECT_EQ(even.min, 1.0);
    EXPECT_EQ(even.max, 10.0);

    const LaneRate one = laneRate({2.5});
    EXPECT_EQ(one.median, 2.5);
    EXPECT_EQ(one.min, 2.5);
    EXPECT_EQ(one.max, 2.5);

    const LaneRate none = laneRate({});
    EXPECT_EQ(none.median, 0.0);
    EXPECT_EQ(none.max, 0.0);
}

TEST(BenchSummary, CheckHoldsTheMediansToTheFloors)
{
    const BenchCheckConfig check;
    const double floor = check.covert_bit_floor;
    const double hit_floor = check.cache_access_hit_floor;
    const auto run = [&](LaneRate covert, LaneRate hit) {
        const std::vector<MacroBenchRow> macro = {
            {"cache_access_hit", 1'000'000, hit},
            {"covert_channel_bit", 160, covert},
            {"xcore_channel_bit", 160, laneRate({check.xcore_bit_floor})},
            {"trace_replay_access", 500'000,
             laneRate({check.trace_replay_floor * 2})},
        };
        std::ostringstream os;
        const bool ok = checkSimBench(check, macro, os);
        return std::make_pair(ok, os.str());
    };

    // One slow repeat does not fail the gate: its median holds.
    const auto [slow_min_ok, slow_min_msg] =
        run(laneRate({floor * 0.1, floor * 1.2, floor * 1.3}),
            laneRate({hit_floor}));
    EXPECT_TRUE(slow_min_ok) << slow_min_msg;

    // One fast repeat does not pass it: its median is below the floor.
    const auto [fast_max_ok, fast_max_msg] =
        run(laneRate({floor * 0.8, floor * 0.9, floor * 5.0}),
            laneRate({hit_floor}));
    EXPECT_FALSE(fast_max_ok);
    EXPECT_NE(fast_max_msg.find("covert_channel_bit median"),
              std::string::npos)
        << fast_max_msg;

    // The L1 hit lane is gated the same way.
    const auto [hit_ok, hit_msg] =
        run(laneRate({floor}),
            laneRate({hit_floor * 0.1, hit_floor * 0.9, hit_floor * 5.0}));
    EXPECT_FALSE(hit_ok);
    EXPECT_NE(hit_msg.find("cache_access_hit median"), std::string::npos)
        << hit_msg;
    EXPECT_EQ(hit_msg.find("covert_channel_bit"), std::string::npos)
        << hit_msg;

    const auto [missing_ok, missing_msg] = [&] {
        std::ostringstream os;
        const bool ok = checkSimBench(check, {}, os);
        return std::make_pair(ok, os.str());
    }();
    EXPECT_FALSE(missing_ok);
    EXPECT_NE(missing_msg.find("missing"), std::string::npos);
}

// The covert_channel_bit and xcore_channel_bit lanes of
// core::runMacroBench time throughput only; these cases pin what the
// same sessions decode.  The configs copy the lanes' (keep them in
// step with src/core/bench.cpp) at the scale of CI's full bench
// (--accesses=4000000: 160 bits, run seed 1, so session seeds 4 and 5).
// The bounds are the errors measured when the cases were added.
TEST(BenchChannelLanes, CovertLaneDecodesEveryBit)
{
    lruleak::channel::SessionConfig cfg;
    cfg.channel = lruleak::channel::ChannelId::LruAlg1;
    cfg.message = lruleak::channel::Bits{1, 0, 1, 1};
    cfg.repeats = 40;
    cfg.encode_gap = static_cast<std::uint32_t>(cfg.tr);
    cfg.seed = 4;
    const auto res = lruleak::channel::runSession(cfg);
    EXPECT_EQ(res.received.size(), 160u); // no window lost
    EXPECT_EQ(res.error_rate, 0.0);
}

TEST(BenchChannelLanes, XCoreLaneDecodesEveryWindow)
{
    lruleak::channel::SessionConfig cfg;
    cfg.channel = lruleak::channel::ChannelId::XCoreLruAlg2;
    cfg.mode = lruleak::channel::SharingMode::CrossCore;
    cfg.d = 12;
    cfg.tr = 3000;
    cfg.ts = 30000;
    cfg.llc_policy = lruleak::sim::ReplPolicyKind::TreePlru;
    cfg.message = lruleak::channel::Bits{1, 0, 1, 1};
    cfg.repeats = 40;
    cfg.encode_gap = static_cast<std::uint32_t>(cfg.tr);
    cfg.seed = 5;
    const auto res = lruleak::channel::runSession(cfg);
    EXPECT_EQ(res.received.size(), 160u); // no window lost
    // Paced per op the cross-core channel decodes 5 of the 160 bits
    // wrong.
    EXPECT_LE(res.error_rate, 5.0 / 160.0);
}
