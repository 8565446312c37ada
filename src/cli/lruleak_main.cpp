/**
 * @file
 * `lruleak` — the single driver binary over the experiment registry.
 *
 *   lruleak list                          all registered experiments
 *   lruleak describe <name>               description + parameters
 *   lruleak run <name> [--param=value...] one experiment
 *               [--format=table|json|csv] [--seed=N]
 *   lruleak run-all [--format=...]        every experiment, defaults
 *
 * Any `--x=y` pair (or `--x y`) is an override of the experiment's
 * declared parameter `x` — `--seed=N` is simply the conventional RNG
 * parameter most experiments declare.  Unknown parameters, type errors
 * and bad choice values are rejected before the experiment starts,
 * with a message listing the valid options.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "channel/session.hpp"
#include "core/bench.hpp"
#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/param.hpp"
#include "core/result_cache.hpp"
#include "experiments/common.hpp"
#include "util/hash.hpp"
#include "workload/trace_file.hpp"
#include "workload/trace_gen.hpp"

namespace {

using namespace lruleak;
using core::Experiment;
using core::Registry;

int
usage(std::ostream &os, int code)
{
    os << "usage:\n"
          "  lruleak list\n"
          "  lruleak describe <experiment|channel>\n"
          "  lruleak run <experiment> [--format=table|json|csv] "
          "[--smoke] [--seed=N]\n"
          "              [--cache-dir=DIR] [--<param>=<value> ...]\n"
          "  lruleak run-all [--format=table|json|csv] [--smoke] "
          "[--seed=N]\n"
          "              [--shard=i/N] [--cache-dir=DIR]\n"
          "  lruleak merge <out.json|-> <shard.json> "
          "[<shard.json> ...]\n"
          "  lruleak trace-gen <workload> <out-file> [--accesses=N] "
          "[--writes=F]\n"
          "              [--seed=N] [--format=text|binary]\n"
          "  lruleak bench [--accesses=N] [--repeats=N] "
          "[--policies=a,b,...] [--out=FILE]\n"
          "              [--smoke] [--check]\n"
          "\n"
          "`--smoke` applies the experiment's reduced-scale parameter "
          "set (the same one\nthe CI golden-snapshot suite runs); "
          "explicit --param overrides still win.\n"
          "`--seed=N` overrides the RNG seed of every experiment that "
          "declares one (all\nbut the purely deterministic ones do; the "
          "per-experiment defaults shown by\n`describe` keep golden "
          "runs reproducible).  On `run-all` it applies to each\n"
          "seed-taking experiment and is ignored by the rest.\n"
          "`--shard=i/N` runs shard i of an N-way split of the catalog "
          "(a stable hash of\nthe experiment name, so N workers cover "
          "every experiment exactly once);\n`lruleak merge` unions the "
          "workers' --format=json outputs back into the exact\nbytes "
          "of an unsharded run.  `--cache-dir=DIR` (or the "
          "LRULEAK_CACHE env var)\nenables the content-addressed "
          "result cache: runs keyed on (binary, experiment,\nresolved "
          "parameters, format) are served from the store instead of "
          "executing;\nthe run summary on stderr reports hit/miss/skip "
          "counts.\n"
          "`lruleak list` shows every registered experiment; "
          "`lruleak describe <name>`\nshows its parameters and their "
          "defaults.  `lruleak trace-gen` exports a\nsynthetic "
          "workload as a replayable access trace (see the "
          "trace_replay\nexperiment).  `lruleak bench` times the "
          "per-access and replay cache-set paths\n"
          "(accesses/sec per replacement policy), runs the macro "
          "subsystem lanes,\n--repeats times each (default 5), and writes the "
          "median, min and max of\nevery lane to BENCH_sim.json; "
          "--check holds the medians to the CI floors.\n";
    return code;
}

int
cmdList()
{
    const auto all = Registry::instance().all();
    std::size_t width = 0;
    for (const Experiment *e : all)
        width = std::max(width, e->name().size());
    for (const Experiment *e : all) {
        std::cout << "  " << e->name();
        for (std::size_t p = e->name().size(); p < width + 2; ++p)
            std::cout << ' ';
        std::cout << e->description() << "\n";
    }
    std::cout << "\n" << all.size()
              << " experiments registered; `lruleak describe <name>` "
                 "shows parameters.\n";
    return 0;
}

const char *
hitLevelName(sim::HitLevel level)
{
    switch (level) {
      case sim::HitLevel::L1:     return "L1";
      case sim::HitLevel::L2:     return "L2";
      case sim::HitLevel::LLC:    return "LLC";
      case sim::HitLevel::Memory: return "memory";
    }
    return "?";
}

/**
 * The capability card of one channel design, driven entirely by the
 * factory capability query and the calibration table — which sharing
 * modes it runs in (all of them, since the Session refactor), which
 * cache level carries it there and which latency pair it decodes.
 */
void
describeChannel(channel::ChannelId id)
{
    const auto &caps = channel::channelCaps(id);
    std::cout << channel::channelIdToken(id) << "  ("
              << channel::channelDisplayName(id) << ")\n"
              << "  sender protocol:  "
              << (caps.sender_alg == channel::LruAlgorithm::Alg1Shared
                      ? "Algorithm 1 (shared line)"
                      : "Algorithm 2 (disjoint address spaces)")
              << "\n"
              << "  shared memory:    "
              << (caps.shared_memory ? "required" : "not required") << "\n"
              << "  uses clflush:     " << (caps.uses_flush ? "yes" : "no")
              << "\n"
              << "  decode polarity:  1 bit = "
              << (caps.invert ? "slow sample (eviction)"
                              : "fast sample (hit)")
              << "\n"
              << "  modulated state:  "
              << (caps.dirty_state
                      ? "dirty bit (write-polarity sender; needs a "
                        "write-back cache)"
                      : "presence / replacement state")
              << "\n"
              << "  sharing modes:\n";
    for (channel::SharingMode mode : channel::allSharingModes()) {
        channel::SessionConfig probe;
        probe.channel = id;
        probe.mode = mode;
        const channel::Carrier carrier = channel::sessionCarrier(probe);
        const auto levels = channel::carrierLevels(id, carrier);
        std::cout << "    " << std::left << std::setw(15)
                  << channel::sharingModeToken(mode)
                  << (carrier == channel::Carrier::L1 ? "L1" : "shared-LLC")
                  << " carrier, decodes " << hitLevelName(levels.fast)
                  << " vs " << hitLevelName(levels.slow) << "\n";
    }
    std::cout << "\nRun any mode through the `channel_matrix` experiment "
                 "or channel::Session.\n";
}

int
cmdDescribe(const std::string &name)
{
    const Experiment *e = Registry::instance().find(name);
    if (!e) {
        // Not an experiment — maybe a channel ("lruleak describe
        // lru-alg1" prints its topology/sharing-mode capabilities).
        try {
            describeChannel(channel::channelIdFromName(name));
            return 0;
        } catch (const std::invalid_argument &) {
        }
        std::cerr << "unknown experiment or channel '" << name
                  << "'; see `lruleak list` (experiments) or `lruleak "
                     "describe lru-alg1` (channels)\n";
        return 2;
    }
    std::cout << e->name() << "\n  " << e->description() << "\n";
    const auto specs = e->params();
    if (specs.empty()) {
        std::cout << "\n  (no parameters)\n";
        return 0;
    }
    std::cout << "\n  parameters:\n";
    for (const auto &spec : specs) {
        std::cout << "    --" << spec.name << "=<"
                  << core::paramTypeName(spec.type) << ">  default "
                  << (spec.default_value.empty() ? "\"\""
                                                 : spec.default_value)
                  << "\n        " << spec.description << "\n";
        if (!spec.choices.empty()) {
            std::cout << "        choices:";
            for (const auto &c : spec.choices)
                std::cout << " " << c;
            std::cout << "\n";
        }
    }
    return 0;
}

/**
 * Split `--name=value` / `--name value` style args after the command.
 * The valueless `--smoke` flag is consumed here so every subcommand
 * shares one spelling.
 */
bool
parseOverrides(const std::vector<std::string> &args,
               std::map<std::string, std::string> &overrides,
               std::string &format, bool *smoke = nullptr)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (smoke && arg == "--smoke") {
            *smoke = true;
            continue;
        }
        if (arg.rfind("--", 0) != 0) {
            std::cerr << "unexpected argument '" << arg
                      << "' (parameters look like --name=value)\n";
            return false;
        }
        std::string name = arg.substr(2);
        std::string value;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        } else if (i + 1 < args.size()) {
            value = args[++i];
        } else {
            std::cerr << "parameter '--" << name << "' needs a value\n";
            return false;
        }
        if (name == "format")
            format = value;
        else
            overrides[name] = value;
    }
    return true;
}

/**
 * Run one experiment into a buffer and return the rendered output.
 * Buffering keeps the machine-readable formats well-formed: a failure
 * mid-run throws before anything (e.g. an unclosed JSON document)
 * reaches stdout.
 */
std::string
renderOne(const Experiment &experiment,
          const std::map<std::string, std::string> &overrides,
          core::OutputFormat format)
{
    std::ostringstream os;
    const auto sink = core::makeSink(format, os);
    core::runExperiment(experiment, overrides, *sink);
    return os.str();
}

/** Does the experiment declare a parameter with this name? */
bool
declaresParam(const Experiment &experiment, const std::string &name)
{
    for (const auto &spec : experiment.params()) {
        if (spec.name == name)
            return true;
    }
    return false;
}

int
cmdRun(const std::string &name, const std::vector<std::string> &args)
{
    const Experiment *e = Registry::instance().find(name);
    if (!e) {
        std::cerr << "unknown experiment '" << name
                  << "'; see `lruleak list`\n";
        return 2;
    }
    std::map<std::string, std::string> overrides;
    std::string format = "table";
    bool smoke = false;
    if (!parseOverrides(args, overrides, format, &smoke))
        return 2;
    std::string cache_dir_flag;
    if (const auto it = overrides.find("cache-dir");
        it != overrides.end()) {
        cache_dir_flag = it->second;
        overrides.erase(it);
    }
    if (smoke) {
        // Smoke scale first, explicit --param overrides on top.
        auto merged = e->smokeParams();
        for (const auto &[k, v] : overrides)
            merged[k] = v;
        overrides = std::move(merged);
    }
    if (overrides.count("seed") && !declaresParam(*e, "seed")) {
        std::cerr << "experiment '" << e->name()
                  << "' is deterministic (no seed parameter); --seed "
                     "does not apply\n";
        return 2;
    }
    const auto fmt = core::outputFormatFromName(format);
    const std::string cache_dir = core::resolveCacheDir(cache_dir_flag);
    if (!cache_dir.empty()) {
        const core::ResultCache cache(cache_dir,
                                      util::selfBinaryHashHex());
        const core::ParamMap resolved =
            core::resolveParams(e->params(), overrides);
        const std::string key =
            cache.keyFor(e->name(), resolved.values(), format);
        core::CacheCounters counters;
        if (const auto artifact = cache.fetch(key, &counters)) {
            std::cout << *artifact;
        } else {
            const std::string rendered = renderOne(*e, overrides, fmt);
            cache.store(key, rendered);
            std::cout << rendered;
        }
        std::cerr << core::cacheSummary(counters) << "\n";
        return 0;
    }
    std::cout << renderOne(*e, overrides, fmt);
    return 0;
}

int
cmdRunAll(const std::vector<std::string> &args)
{
    std::map<std::string, std::string> overrides;
    std::string format = "table";
    bool smoke = false;
    if (!parseOverrides(args, overrides, format, &smoke))
        return 2;
    core::RunAllOptions options;
    options.smoke = smoke;
    // --seed is first-class: it fans out to every experiment that
    // declares the conventional seed parameter.
    if (const auto it = overrides.find("seed"); it != overrides.end()) {
        options.seed = it->second;
        overrides.erase(it);
    }
    std::string cache_dir_flag;
    if (const auto it = overrides.find("cache-dir");
        it != overrides.end()) {
        cache_dir_flag = it->second;
        overrides.erase(it);
    }
    if (const auto it = overrides.find("shard"); it != overrides.end()) {
        try {
            options.shard = core::parseShardSpec(it->second);
        } catch (const std::invalid_argument &e) {
            std::cerr << "error: " << e.what() << "\n";
            return 2;
        }
        overrides.erase(it);
    }
    if (!overrides.empty()) {
        // Anything else is experiment-specific (`lruleak run` takes
        // those); show the whole usage block rather than a stale list.
        std::cerr << "run-all does not take '--"
                  << overrides.begin()->first
                  << "' (per-experiment parameters go through `lruleak "
                     "run`)\n\n";
        return usage(std::cerr, 2);
    }
    options.format = core::outputFormatFromName(format);

    const std::string cache_dir = core::resolveCacheDir(cache_dir_flag);
    std::optional<core::ResultCache> cache;
    if (!cache_dir.empty())
        cache.emplace(cache_dir, util::selfBinaryHashHex());
    options.cache = cache ? &*cache : nullptr;

    const auto outcome =
        core::runAllCatalog(options, std::cout, std::cerr);
    std::cerr << core::runAllSummary(options, outcome) << "\n";
    return outcome.failures == 0 ? 0 : 1;
}

int
cmdMerge(const std::vector<std::string> &args)
{
    if (args.size() < 2) {
        std::cerr << "merge wants an output path ('-' for stdout) and "
                     "at least one shard document:\n  lruleak merge "
                     "<out.json|-> <shard.json> [<shard.json> ...]\n";
        return 2;
    }
    std::vector<std::string> documents;
    for (std::size_t i = 1; i < args.size(); ++i) {
        std::ifstream in(args[i], std::ios::binary);
        if (!in) {
            std::cerr << "cannot read shard document " << args[i]
                      << "\n";
            return 2;
        }
        std::ostringstream os;
        os << in.rdbuf();
        documents.push_back(os.str());
    }
    std::string merged;
    try {
        merged = core::mergeRunAllJson(documents);
    } catch (const std::invalid_argument &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    if (args[0] == "-") {
        std::cout << merged;
        return 0;
    }
    std::ofstream out(args[0], std::ios::binary | std::ios::trunc);
    if (!out) {
        std::cerr << "cannot write " << args[0] << "\n";
        return 1;
    }
    out << merged;
    if (!out.good()) {
        std::cerr << "write failed: " << args[0] << "\n";
        return 1;
    }
    std::cerr << "merged " << (args.size() - 1) << " document(s) into "
              << args[0] << "\n";
    return 0;
}

/**
 * Integer value of subcommand option --@p name: core::parseInt's syntax
 * with nothing trailing, and at least @p min.  A bad value throws
 * ParamError naming the option, which exits 2.
 */
std::uint64_t
parseCountOption(const std::string &name, const std::string &value,
                 std::int64_t min)
{
    const std::int64_t parsed = core::parseInt("--" + name, value);
    if (parsed < min)
        throw core::ParamError("--" + name + " needs a " +
                               (min > 0 ? "positive" : "non-negative") +
                               " integer, got '" + value + "'");
    return static_cast<std::uint64_t>(parsed);
}

int
cmdTraceGen(const std::vector<std::string> &args)
{
    if (args.size() < 2 || args[0].rfind("--", 0) == 0 ||
        args[1].rfind("--", 0) == 0) {
        std::cerr << "trace-gen wants a workload and an output path:\n"
                     "  lruleak trace-gen <workload> <out-file> "
                     "[--accesses=N] [--writes=F]\n"
                     "                    [--seed=N] "
                     "[--format=text|binary]\nworkloads:";
        for (const auto &w : workload::workloadNames())
            std::cerr << " " << w;
        std::cerr << "\n";
        return 2;
    }
    const std::string &name = args[0];
    const std::string &out_path = args[1];
    std::map<std::string, std::string> overrides;
    std::string format = "text";
    if (!parseOverrides({args.begin() + 2, args.end()}, overrides,
                        format))
        return 2;
    std::size_t accesses = 100'000;
    std::uint64_t seed = 1;
    double writes = 0.0;
    for (const auto &[key, value] : overrides) {
        if (key == "accesses") {
            accesses = parseCountOption(key, value, 1);
        } else if (key == "seed") {
            seed = parseCountOption(key, value, 0);
        } else if (key == "writes") {
            writes = core::parseReal("--" + key, value);
            if (!(writes >= 0.0 && writes <= 1.0))
                throw core::ParamError("--writes needs a fraction in "
                                       "[0, 1], got '" + value + "'");
        } else {
            std::cerr << "unknown trace-gen option '--" << key
                      << "' (valid: --accesses --writes --seed "
                         "--format)\n";
            return 2;
        }
    }
    if (format != "text" && format != "binary") {
        std::cerr << "trace-gen --format must be text or binary, got '"
                  << format << "'\n";
        return 2;
    }
    const auto trace =
        workload::generateTrace(name, accesses, seed, writes);
    if (format == "binary")
        workload::saveBinaryTrace(trace, out_path);
    else
        workload::saveTextTrace(trace, out_path);
    std::cerr << "wrote " << trace.size() << " accesses of '" << name
              << "' to " << out_path << " (" << format << ")\n";
    return 0;
}

int
cmdBench(const std::vector<std::string> &args)
{
    core::SimBenchConfig cfg;
    std::string out_path = "BENCH_sim.json";

    std::map<std::string, std::string> overrides;
    std::string format = "table";
    // --smoke has no value; expand it before the generic parser.
    std::vector<std::string> expanded;
    bool smoke = false;
    bool check = false;
    for (const auto &arg : args) {
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--check")
            check = true;
        else
            expanded.push_back(arg);
    }
    if (!parseOverrides(expanded, overrides, format))
        return 2;
    if (format != "table") {
        std::cerr << "bench does not take --format (it prints a table "
                     "and writes JSON to --out)\n";
        return 2;
    }

    for (const auto &[name, value] : overrides) {
        if (name == "accesses") {
            cfg.accesses = parseCountOption(name, value, 1);
        } else if (name == "repeats") {
            cfg.repeats = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                parseCountOption(name, value, 1), 1000));
        } else if (name == "seed") {
            cfg.seed = parseCountOption(name, value, 0);
        } else if (name == "out") {
            out_path = value;
        } else if (name == "policies") {
            // A bad name throws ParamError naming the option: exit 2.
            cfg.policies = experiments::parsePolicyList(value, "policies");
        } else {
            std::cerr << "unknown bench option '--" << name
                      << "' (valid: --accesses --repeats --seed "
                         "--policies --out --smoke --check)\n";
            return 2;
        }
    }
    if (smoke)
        cfg.accesses = std::min<std::uint64_t>(cfg.accesses, 200'000);

    const auto rows = core::runSimBench(cfg);
    const auto macro = core::runMacroBench(cfg);

    std::cout << "sim access throughput (" << cfg.accesses
              << " accesses/lane, " << cfg.ways << "-way set; medians of "
              << cfg.repeats << " runs)\n\n"
              << std::left << std::setw(11) << "workload" << std::setw(10)
              << "policy" << std::right << std::setw(14) << "value (a/s)"
              << std::setw(14) << "replay (a/s)" << "\n";
    for (const auto &row : rows) {
        std::cout << std::left << std::setw(11)
                  << core::benchWorkloadName(row.workload) << std::setw(10)
                  << sim::replPolicyName(row.policy) << std::right
                  << std::fixed << std::setprecision(0) << std::setw(14)
                  << row.value.median << std::setw(14)
                  << row.replay.median << "\n";
    }

    std::cout << "\nmacro lanes (whole-subsystem hot paths)\n\n"
              << std::left << std::setw(22) << "lane" << std::right
              << std::setw(14) << "items" << std::setw(16) << "items/sec"
              << std::setw(16) << "min" << std::setw(16) << "max" << "\n";
    for (const auto &row : macro) {
        std::cout << std::left << std::setw(22) << row.name << std::right
                  << std::setw(14) << row.items << std::fixed
                  << std::setprecision(0) << std::setw(16)
                  << row.items_per_sec.median << std::setw(16)
                  << row.items_per_sec.min << std::setw(16)
                  << row.items_per_sec.max << "\n";
    }

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    core::writeSimBenchJson(cfg, rows, macro, out);
    std::cout << "\nwrote " << out_path << "\n";

    if (check) {
        // The CI perf gate: the medians of the Session fast path, the
        // trace replay lane and the L1 hit lane must hold their floors.
        if (!core::checkSimBench(core::BenchCheckConfig{}, macro,
                                 std::cerr))
            return 1;
        std::cout << "check passed: channel-bit, trace-replay and "
                     "cache-hit lanes above floor\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage(std::cerr, 2);

    const std::string cmd = args[0];
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "describe") {
            if (args.size() != 2)
                return usage(std::cerr, 2);
            return cmdDescribe(args[1]);
        }
        if (cmd == "run") {
            if (args.size() < 2)
                return usage(std::cerr, 2);
            return cmdRun(args[1], {args.begin() + 2, args.end()});
        }
        if (cmd == "run-all")
            return cmdRunAll({args.begin() + 1, args.end()});
        if (cmd == "merge")
            return cmdMerge({args.begin() + 1, args.end()});
        if (cmd == "trace-gen")
            return cmdTraceGen({args.begin() + 1, args.end()});
        if (cmd == "bench")
            return cmdBench({args.begin() + 1, args.end()});
        if (cmd == "help" || cmd == "--help" || cmd == "-h")
            return usage(std::cout, 0);
    } catch (const core::ParamError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "unknown command '" << cmd << "'\n";
    return usage(std::cerr, 2);
}
