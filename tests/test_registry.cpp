/**
 * @file
 * Tests for the experiment registry: catalog completeness (every seed
 * bench binary's name resolves), metadata sanity, the channel/uarch
 * name tables, and end-to-end runs through runExperiment().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>

#include "sim/repl_state.hpp"

#include "channel/channel_factory.hpp"
#include "channel/session.hpp"
#include "core/experiment.hpp"
#include "experiments/common.hpp"
#include "timing/uarch.hpp"

using namespace lruleak;
using namespace lruleak::core;

namespace {

/** The 23 bench binaries the seed repo shipped, one experiment each. */
const std::vector<std::string> kSeedBenchNames = {
    "ablation_chase_length",
    "ablation_defense_efficacy",
    "ablation_policy_channel",
    "ablation_secure_caches",
    "ablation_speculation_window",
    "appc_prefetcher_noise",
    "fig11_plcache_attack",
    "fig13_rdtscp_hist",
    "fig14_skylake_traces",
    "fig15_skylake_timesliced",
    "fig3_pointer_chase_hist",
    "fig4_error_rate",
    "fig5_traces",
    "fig6_timesliced",
    "fig7_amd_traces",
    "fig8_amd_timesliced",
    "fig9_replacement_performance",
    "tab1_plru_eviction",
    "tab2_cache_latency",
    "tab4_transmission_rates",
    "tab5_encoding_latency",
    "tab6_sender_miss_rates",
    "tab7_spectre_miss_rates",
};

/** Sink that records which callbacks fired. */
class RecordingSink : public ResultSink
{
  public:
    void
    begin(const std::string &experiment, const std::string &,
          const ParamMap &params) override
    {
        begun = experiment;
        begin_params = params.values();
    }
    void note(const std::string &) override { ++notes; }
    void
    table(const std::string &, const Table &t) override
    {
        ++tables;
        rows += t.rows();
    }
    void scalar(const std::string &, double) override { ++scalars; }
    void
    series(const std::string &, const std::vector<double> &,
           std::size_t) override
    {
        ++series_count;
    }
    void text(const std::string &, const std::string &) override {}
    void end() override { ended = true; }

    std::string begun;
    std::map<std::string, std::string> begin_params;
    int notes = 0, tables = 0, scalars = 0, series_count = 0;
    std::size_t rows = 0;
    bool ended = false;
};

} // namespace

TEST(Registry, EverySeedBenchNameResolves)
{
    for (const auto &name : kSeedBenchNames) {
        const Experiment *e = Registry::instance().find(name);
        ASSERT_NE(e, nullptr) << name;
        EXPECT_EQ(e->name(), name);
        EXPECT_FALSE(e->description().empty()) << name;
    }
}

TEST(Registry, AtLeastTwentyExperiments)
{
    EXPECT_GE(Registry::instance().size(), 20u);
}

TEST(Registry, AllIsSortedAndMatchesSize)
{
    const auto all = Registry::instance().all();
    EXPECT_EQ(all.size(), Registry::instance().size());
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                               [](const Experiment *a,
                                  const Experiment *b) {
                                   return a->name() < b->name();
                               }));
}

TEST(Registry, UnknownNameReturnsNull)
{
    EXPECT_EQ(Registry::instance().find("no_such_experiment"), nullptr);
}

TEST(Registry, HyphenatedSpellingsResolve)
{
    // The CLI token style uses hyphens; the registry accepts both.
    const Experiment *e = Registry::instance().find("xcore-error-rate");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->name(), "xcore_error_rate");
    EXPECT_EQ(Registry::instance().find("tab1-plru-eviction"),
              Registry::instance().find("tab1_plru_eviction"));
}

TEST(Registry, XCoreExperimentsRegistered)
{
    for (const char *name : {"xcore_traces", "xcore_error_rate"}) {
        const Experiment *e = Registry::instance().find(name);
        ASSERT_NE(e, nullptr) << name;
        EXPECT_FALSE(e->description().empty());
    }
    // The scenario params the cross-core family exposes on the CLI.
    const auto has_param = [](const Experiment *e, const char *param) {
        const auto specs = e->params();
        return std::any_of(specs.begin(), specs.end(),
                           [&](const ParamSpec &s) {
                               return s.name == param;
                           });
    };
    EXPECT_TRUE(has_param(Registry::instance().find("xcore_traces"),
                          "cores"));
    EXPECT_TRUE(has_param(Registry::instance().find("xcore_error_rate"),
                          "noise-cores"));
}

TEST(Registry, SmokeParamsOnlyNameDeclaredKnobsAndValidate)
{
    for (const Experiment *e : Registry::instance().all()) {
        const auto smoke = e->smokeParams();
        // Must resolve cleanly against the declared specs...
        EXPECT_NO_THROW(resolveParams(e->params(), smoke)) << e->name();
        // ...and only ever shrink integer scale knobs, never grow them.
        const auto specs = e->params();
        for (const auto &[name, value] : smoke) {
            const auto it = std::find_if(specs.begin(), specs.end(),
                                         [&](const ParamSpec &s) {
                                             return s.name == name;
                                         });
            ASSERT_NE(it, specs.end()) << e->name() << " " << name;
            if (it->type == ParamType::Int) {
                EXPECT_LE(parseInt(name, value),
                          parseInt(name, it->default_value))
                    << e->name() << " " << name;
            }
        }
    }
}

TEST(Registry, ParamSpecsValidateCleanly)
{
    // Every declared default must survive its own validation.
    for (const Experiment *e : Registry::instance().all())
        EXPECT_NO_THROW(resolveParams(e->params(), {})) << e->name();
}

TEST(Registry, RunTab1EmitsTableThroughSink)
{
    const Experiment *e =
        Registry::instance().find("tab1_plru_eviction");
    ASSERT_NE(e, nullptr);

    RecordingSink sink;
    runExperiment(*e, {{"trials", "200"}}, sink);

    EXPECT_EQ(sink.begun, "tab1_plru_eviction");
    EXPECT_EQ(sink.begin_params.at("trials"), "200");
    EXPECT_EQ(sink.begin_params.at("seed"), "2020");
    EXPECT_TRUE(sink.ended);
    EXPECT_EQ(sink.tables, 1);
    EXPECT_EQ(sink.rows, 8u); // 2 init conditions x 4 iteration rows
    EXPECT_GE(sink.notes, 2);
}

TEST(Registry, RunRejectsUnknownOverride)
{
    const Experiment *e =
        Registry::instance().find("tab1_plru_eviction");
    ASSERT_NE(e, nullptr);
    RecordingSink sink;
    EXPECT_THROW(runExperiment(*e, {{"nope", "1"}}, sink), ParamError);
}

TEST(Registry, UarchParamAcceptsAliasesAndRejectsUnknown)
{
    const Experiment *e = Registry::instance().find("fig5_traces");
    ASSERT_NE(e, nullptr);
    const auto specs = e->params();
    EXPECT_TRUE(std::any_of(specs.begin(), specs.end(),
                            [](const ParamSpec &s) {
                                return s.name == "uarch";
                            }));
    RecordingSink sink;
    EXPECT_THROW(runExperiment(*e, {{"uarch", "vax"}}, sink),
                 ParamError);
}

TEST(Registry, PolicyParamsNameTheParameterAndSkipEmptyTokens)
{
    // A bad name in any policy list or single policy param is a
    // ParamError naming the parameter, thrown before any session runs.
    const std::pair<const char *, const char *> bad[] = {
        {"channel_matrix", "policies"},
        {"leakage_matrix", "policies"},
        {"trace_replay", "policies"},
        {"sharp_defense", "policy"},
    };
    for (const auto &[name, param] : bad) {
        const Experiment *e = Registry::instance().find(name);
        ASSERT_NE(e, nullptr) << name;
        RecordingSink sink;
        try {
            runExperiment(*e, {{param, "lru,bogus"}}, sink);
            ADD_FAILURE() << name << " accepted a bogus policy";
        } catch (const ParamError &err) {
            EXPECT_NE(std::string(err.what()).find(
                          std::string("parameter '") + param + "'"),
                      std::string::npos)
                << err.what();
        }
    }

    // The list shares parseChannels' token rules: spaces and empty
    // tokens are skipped, and at least one policy is required.
    const std::vector<ParamSpec> specs{
        experiments::policiesParam("lru"),
        ParamSpec::str("policy", "LRU", "single policy")};
    const auto parsed = experiments::parsePolicies(
        resolveParams(specs, {{"policies", "lru,, fifo,"}}));
    EXPECT_EQ(parsed, (std::vector<sim::ReplPolicyKind>{
                          sim::ReplPolicyKind::TrueLru,
                          sim::ReplPolicyKind::Fifo}));
    EXPECT_THROW(experiments::parsePolicies(
                     resolveParams(specs, {{"policies", " , "}})),
                 ParamError);
    EXPECT_EQ(experiments::parsePolicy(resolveParams(specs, {})),
              sim::ReplPolicyKind::TrueLru);
    EXPECT_THROW(experiments::parsePolicy(
                     resolveParams(specs, {{"policy", "lru,fifo"}})),
                 ParamError);
}

TEST(ChannelFactory, TokensRoundTrip)
{
    for (auto id : channel::allChannelIds())
        EXPECT_EQ(channel::channelIdFromName(channel::channelIdToken(id)),
                  id);
}

TEST(ChannelFactory, AliasesAndCaseInsensitivity)
{
    using channel::ChannelId;
    EXPECT_EQ(channel::channelIdFromName("LRU_ALG1"), ChannelId::LruAlg1);
    EXPECT_EQ(channel::channelIdFromName("flush-reload-mem"),
              ChannelId::FrMem);
    EXPECT_EQ(channel::channelIdFromName("pp"), ChannelId::PrimeProbe);
    EXPECT_THROW(channel::channelIdFromName("carrier-pigeon"),
                 std::invalid_argument);
}

TEST(ChannelFactory, DisplayNamesMatchPaperTables)
{
    using channel::ChannelId;
    EXPECT_EQ(channel::channelDisplayName(ChannelId::FrMem), "F+R (mem)");
    EXPECT_EQ(channel::channelDisplayName(ChannelId::LruAlg2),
              "L1 LRU Alg.2");
    EXPECT_EQ(channel::channelDisplayName(ChannelId::PrimeProbe),
              "Prime+Probe");
    EXPECT_EQ(channel::channelDisplayName(ChannelId::XCoreLruAlg2),
              "LLC LRU Alg.2 (x-core)");
}

TEST(ChannelFactory, SenderAlgorithmPairing)
{
    using channel::ChannelId;
    using channel::LruAlgorithm;
    EXPECT_EQ(channel::senderAlgorithmFor(ChannelId::LruAlg1),
              LruAlgorithm::Alg1Shared);
    EXPECT_EQ(channel::senderAlgorithmFor(ChannelId::FrMem),
              LruAlgorithm::Alg1Shared);
    EXPECT_EQ(channel::senderAlgorithmFor(ChannelId::LruAlg2),
              LruAlgorithm::Alg2Disjoint);
    EXPECT_EQ(channel::senderAlgorithmFor(ChannelId::PrimeProbe),
              LruAlgorithm::Alg2Disjoint);
}

TEST(ChannelFactory, SessionRunsEveryReceiverOnBothCarriers)
{
    // Every ChannelId's receiver runs over either carrier geometry: the
    // L1 set (hyper-threaded) and the shared LLC set (cross-core).
    for (const channel::SharingMode mode :
         {channel::SharingMode::HyperThreaded,
          channel::SharingMode::CrossCore}) {
        for (auto id : channel::allChannelIds()) {
            channel::SessionConfig cfg;
            cfg.channel = id;
            cfg.mode = mode;
            cfg.message = channel::Bits{1, 0, 1};
            const channel::SessionResult res = channel::runSession(cfg);
            EXPECT_FALSE(res.samples.empty())
                << channel::channelIdToken(id) << " "
                << channel::sharingModeToken(mode);
            EXPECT_EQ(res.sent, cfg.message);
        }
    }
}

TEST(ChannelFactory, CapsDriveAlgorithmAndDepthDefaults)
{
    using channel::ChannelId;
    for (auto id : channel::allChannelIds()) {
        EXPECT_EQ(channel::channelCaps(id).sender_alg,
                  channel::senderAlgorithmFor(id));
    }
    // Paper defaults: Alg.1 primes the whole 8-way set, Alg.2 half,
    // the cross-core Alg.2 12 of the LLC's 16 ways.
    EXPECT_EQ(channel::defaultInitDepth(ChannelId::LruAlg1, 8), 8u);
    EXPECT_EQ(channel::defaultInitDepth(ChannelId::LruAlg2, 8), 4u);
    EXPECT_EQ(channel::defaultInitDepth(ChannelId::XCoreLruAlg2, 16),
              12u);
    EXPECT_EQ(channel::defaultInitDepth(ChannelId::FrMem, 8), 0u);
    // Shared-memory and polarity capabilities match the designs.
    EXPECT_TRUE(channel::channelCaps(ChannelId::FrMem).shared_memory);
    EXPECT_TRUE(channel::channelCaps(ChannelId::LruAlg1).shared_memory);
    EXPECT_FALSE(channel::channelCaps(ChannelId::LruAlg2).shared_memory);
    EXPECT_TRUE(channel::channelCaps(ChannelId::FrMem).uses_flush);
    EXPECT_TRUE(channel::channelCaps(ChannelId::PrimeProbe).invert);
    EXPECT_FALSE(channel::channelCaps(ChannelId::LruAlg1).invert);
    EXPECT_TRUE(
        channel::channelCaps(ChannelId::XCoreLruAlg2).llc_geometry);
}

TEST(UarchNames, TokensResolve)
{
    for (const auto &token : timing::uarchTokens())
        EXPECT_NO_THROW(timing::uarchFromName(token)) << token;
    EXPECT_EQ(timing::uarchFromName("skylake").microarch, "Skylake");
    EXPECT_EQ(timing::uarchFromName("AMD").name, "AMD EPYC 7571");
    EXPECT_THROW(timing::uarchFromName("m68k"), std::invalid_argument);
}

// ------------------------------- name-table error paths (CLI surface)

TEST(ChannelFactory, EveryTokenParsesCaseInsensitively)
{
    for (auto id : channel::allChannelIds()) {
        std::string upper(channel::channelIdToken(id));
        for (auto &c : upper)
            c = static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        EXPECT_EQ(channel::channelIdFromName(upper), id) << upper;
    }
}

TEST(ChannelFactory, UnknownNameErrorListsValidTokens)
{
    try {
        channel::channelIdFromName("quantum-telepathy");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("quantum-telepathy"), std::string::npos)
            << "message must echo the bad name: " << msg;
        EXPECT_NE(msg.find("lru-alg1"), std::string::npos)
            << "message must list the valid tokens: " << msg;
    }
}

TEST(ChannelFactory, EmptyAndWhitespaceNamesRejected)
{
    EXPECT_THROW(channel::channelIdFromName(""), std::invalid_argument);
    EXPECT_THROW(channel::channelIdFromName("  "), std::invalid_argument);
}

TEST(UarchNames, EveryTokenParsesCaseInsensitively)
{
    for (const auto &token : timing::uarchTokens()) {
        std::string upper = token;
        for (auto &c : upper)
            c = static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        EXPECT_NO_THROW(timing::uarchFromName(upper)) << upper;
        EXPECT_EQ(timing::uarchFromName(upper).name,
                  timing::uarchFromName(token).name);
    }
}

TEST(UarchNames, UnknownNameErrorListsValidTokens)
{
    try {
        timing::uarchFromName("pentium-pro");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("pentium-pro"), std::string::npos)
            << "message must echo the bad name: " << msg;
        EXPECT_NE(msg.find("e5-2690"), std::string::npos)
            << "message must list the valid tokens: " << msg;
    }
}

TEST(UarchNames, EmptyNameRejected)
{
    EXPECT_THROW(timing::uarchFromName(""), std::invalid_argument);
}

TEST(ReplPolicyNames, TokensAndErrorPath)
{
    using lruleak::sim::ReplPolicyKind;
    EXPECT_EQ(lruleak::sim::replPolicyFromName("TREEPLRU"),
              ReplPolicyKind::TreePlru);
    EXPECT_EQ(lruleak::sim::replPolicyFromName("tree-plru"),
              ReplPolicyKind::TreePlru);
    EXPECT_THROW(lruleak::sim::replPolicyFromName("clock"),
                 std::invalid_argument);
}
