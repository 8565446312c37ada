/**
 * @file
 * Tests for the declarative experiment parameters: defaults, overrides,
 * typed getters and every validation error path of resolveParams().
 */

#include <gtest/gtest.h>

#include "core/param.hpp"

using namespace lruleak::core;

namespace {

std::vector<ParamSpec>
demoSpecs()
{
    return {
        ParamSpec::integer("trials", 1000, "trial count"),
        ParamSpec::real("probability", 0.5, "coin bias"),
        ParamSpec::flag("verbose", false, "extra output"),
        ParamSpec::str("label", "default", "free text"),
        ParamSpec::choice("policy", "tree-plru", "replacement policy",
                          {"tree-plru", "bit-plru", "fifo"}),
    };
}

} // namespace

TEST(ParamSpec, BuildersRecordTypeAndDefault)
{
    const auto specs = demoSpecs();
    EXPECT_EQ(specs[0].type, ParamType::Int);
    EXPECT_EQ(specs[0].default_value, "1000");
    EXPECT_EQ(specs[1].type, ParamType::Real);
    EXPECT_EQ(specs[2].type, ParamType::Flag);
    EXPECT_EQ(specs[2].default_value, "false");
    EXPECT_EQ(specs[4].type, ParamType::Choice);
    EXPECT_EQ(specs[4].choices.size(), 3u);
}

TEST(ResolveParams, DefaultsApplyWhenNoOverrides)
{
    const ParamMap map = resolveParams(demoSpecs(), {});
    EXPECT_EQ(map.getInt("trials"), 1000);
    EXPECT_DOUBLE_EQ(map.getReal("probability"), 0.5);
    EXPECT_FALSE(map.getFlag("verbose"));
    EXPECT_EQ(map.getStr("label"), "default");
    EXPECT_EQ(map.getStr("policy"), "tree-plru");
}

TEST(ResolveParams, OverridesReplaceDefaults)
{
    const ParamMap map = resolveParams(demoSpecs(),
                                       {{"trials", "42"},
                                        {"verbose", "yes"},
                                        {"policy", "fifo"}});
    EXPECT_EQ(map.getInt("trials"), 42);
    EXPECT_TRUE(map.getFlag("verbose"));
    EXPECT_EQ(map.getStr("policy"), "fifo");
    // Untouched parameters keep their defaults.
    EXPECT_DOUBLE_EQ(map.getReal("probability"), 0.5);
}

TEST(ResolveParams, UnknownNameThrowsAndListsValidNames)
{
    try {
        resolveParams(demoSpecs(), {{"bogus", "1"}});
        FAIL() << "expected ParamError";
    } catch (const ParamError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bogus"), std::string::npos);
        EXPECT_NE(msg.find("trials"), std::string::npos);
        EXPECT_NE(msg.find("policy"), std::string::npos);
    }
}

TEST(ResolveParams, BadIntRejected)
{
    EXPECT_THROW(resolveParams(demoSpecs(), {{"trials", "12abc"}}),
                 ParamError);
    EXPECT_THROW(resolveParams(demoSpecs(), {{"trials", ""}}),
                 ParamError);
    EXPECT_THROW(resolveParams(demoSpecs(), {{"trials", "1.5"}}),
                 ParamError);
}

TEST(ResolveParams, BadRealRejected)
{
    EXPECT_THROW(resolveParams(demoSpecs(), {{"probability", "half"}}),
                 ParamError);
    EXPECT_THROW(resolveParams(demoSpecs(), {{"probability", "0.5x"}}),
                 ParamError);
}

TEST(ResolveParams, BadFlagRejected)
{
    EXPECT_THROW(resolveParams(demoSpecs(), {{"verbose", "maybe"}}),
                 ParamError);
}

TEST(ResolveParams, BadChoiceThrowsAndListsChoices)
{
    try {
        resolveParams(demoSpecs(), {{"policy", "mru"}});
        FAIL() << "expected ParamError";
    } catch (const ParamError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("mru"), std::string::npos);
        EXPECT_NE(msg.find("tree-plru"), std::string::npos);
        EXPECT_NE(msg.find("fifo"), std::string::npos);
    }
}

TEST(ParamMap, FlagSpellings)
{
    for (const char *t : {"1", "true", "yes", "on", "TRUE", "Yes"}) {
        const auto map = resolveParams(demoSpecs(), {{"verbose", t}});
        EXPECT_TRUE(map.getFlag("verbose")) << t;
    }
    for (const char *f : {"0", "false", "no", "off", "OFF"}) {
        const auto map = resolveParams(demoSpecs(), {{"verbose", f}});
        EXPECT_FALSE(map.getFlag("verbose")) << f;
    }
}

TEST(ParamMap, UnsignedGettersRejectNegatives)
{
    const auto map = resolveParams(demoSpecs(), {{"trials", "-3"}});
    EXPECT_EQ(map.getInt("trials"), -3);
    EXPECT_THROW(map.getUint("trials"), ParamError);
    EXPECT_THROW(map.getUint32("trials"), ParamError);
}

TEST(ParamMap, UndeclaredLookupThrows)
{
    const auto map = resolveParams(demoSpecs(), {});
    EXPECT_FALSE(map.has("nope"));
    EXPECT_THROW(map.getInt("nope"), ParamError);
}

TEST(ParamMap, HexIntegersAccepted)
{
    const auto map = resolveParams(demoSpecs(), {{"trials", "0x10"}});
    EXPECT_EQ(map.getInt("trials"), 16);
}

TEST(ParamMap, LeadingZeroIsDecimal)
{
    EXPECT_EQ(resolveParams(demoSpecs(), {{"trials", "010"}}).getInt("trials"),
              10);
    EXPECT_EQ(resolveParams(demoSpecs(), {{"trials", "-010"}}).getInt("trials"),
              -10);
    EXPECT_EQ(resolveParams(demoSpecs(), {{"trials", "0X1f"}}).getInt("trials"),
              31);
    EXPECT_THROW(resolveParams(demoSpecs(), {{"trials", "08x"}}), ParamError);
}
