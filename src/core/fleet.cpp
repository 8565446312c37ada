/**
 * @file
 * Shard partitioning, the shared run-all renderer, and the shard-JSON
 * merge.
 */

#include "core/fleet.hpp"

#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "util/hash.hpp"

namespace lruleak::core {

ShardSpec
parseShardSpec(const std::string &text)
{
    const auto slash = text.find('/');
    std::size_t used_i = 0, used_n = 0;
    unsigned long index = 0, count = 0;
    try {
        if (slash == std::string::npos || slash == 0 ||
            slash + 1 >= text.size())
            throw std::invalid_argument("shape");
        index = std::stoul(text.substr(0, slash), &used_i);
        count = std::stoul(text.substr(slash + 1), &used_n);
    } catch (const std::exception &) {
        throw std::invalid_argument(
            "--shard wants i/N with 0 <= i < N (e.g. --shard=0/3), got '" +
            text + "'");
    }
    if (used_i != slash || used_n != text.size() - slash - 1 ||
        count == 0 || index >= count) {
        throw std::invalid_argument(
            "--shard wants i/N with 0 <= i < N (e.g. --shard=0/3), got '" +
            text + "'");
    }
    return ShardSpec{static_cast<std::uint32_t>(index),
                     static_cast<std::uint32_t>(count)};
}

std::uint32_t
shardOf(std::string_view name, std::uint32_t count)
{
    if (count == 0)
        throw std::invalid_argument("shard count must be positive");
    return static_cast<std::uint32_t>(util::fnv1a64(name) % count);
}

bool
inShard(std::string_view name, const ShardSpec &shard)
{
    return shardOf(name, shard.count) == shard.index;
}

namespace {

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

/** Render one experiment into a buffer (see the CLI's rationale:
 *  buffering keeps machine-readable formats well-formed on a throw). */
std::string
renderOne(const Experiment &experiment,
          const std::map<std::string, std::string> &overrides,
          OutputFormat format)
{
    std::ostringstream os;
    const auto sink = makeSink(format, os);
    runExperiment(experiment, overrides, *sink);
    return os.str();
}

std::string_view
formatToken(OutputFormat format)
{
    switch (format) {
      case OutputFormat::Table: return "table";
      case OutputFormat::Json:  return "json";
      case OutputFormat::Csv:   return "csv";
    }
    return "unknown";
}

} // namespace

RunAllOutcome
runAllCatalog(const RunAllOptions &options, std::ostream &out,
              std::ostream &err)
{
    RunAllOutcome outcome;
    bool first = true;
    if (options.format == OutputFormat::Json)
        out << "[\n";
    for (const Experiment *e : Registry::instance().all()) {
        if (options.shard && !inShard(e->name(), *options.shard)) {
            ++outcome.skipped;
            continue;
        }
        std::string rendered;
        try {
            auto merged = options.smoke
                              ? e->smokeParams()
                              : std::map<std::string, std::string>{};
            if (!options.seed.empty() && declaresParam(*e, "seed"))
                merged["seed"] = options.seed;
            if (options.cache) {
                // Key on the RESOLVED parameters (defaults + merged
                // overrides): every spelling of the same run shares one
                // key, and a changed default is a changed key.
                const ParamMap resolved =
                    resolveParams(e->params(), merged);
                const std::string key = options.cache->keyFor(
                    e->name(), resolved.values(),
                    formatToken(options.format));
                if (auto artifact =
                        options.cache->fetch(key, &outcome.cache)) {
                    rendered = std::move(*artifact);
                } else {
                    rendered = renderOne(*e, merged, options.format);
                    options.cache->store(key, rendered);
                }
            } else {
                rendered = renderOne(*e, merged, options.format);
                ++outcome.cache.skips;
            }
        } catch (const std::exception &ex) {
            err << e->name() << " FAILED: " << ex.what() << "\n";
            ++outcome.failures;
            continue;
        }
        switch (options.format) {
          case OutputFormat::Table:
            out << "\n##### " << e->name() << " #####\n\n" << rendered;
            break;
          case OutputFormat::Json:
            out << (first ? "" : ",\n") << rendered;
            break;
          case OutputFormat::Csv:
            out << (first ? "" : "\n") << rendered;
            break;
        }
        first = false;
        ++outcome.ran;
    }
    if (options.format == OutputFormat::Json)
        out << "]\n";
    return outcome;
}

std::string
runAllSummary(const RunAllOptions &options, const RunAllOutcome &outcome)
{
    std::ostringstream os;
    os << "run-all: ran " << outcome.ran << ", skipped "
       << outcome.skipped;
    if (options.shard)
        os << " (shard " << options.shard->index << "/"
           << options.shard->count << ")";
    if (outcome.failures > 0)
        os << ", " << outcome.failures << " FAILED";
    os << "; " << cacheSummary(outcome.cache);
    return os.str();
}

namespace {

/** One top-level object of a run-all JSON array: its experiment name
 *  and its exact bytes ('{' through the matching '}'). */
struct ShardEntry
{
    std::string name;
    std::string text;
};

[[noreturn]] void
badDocument(const std::string &why)
{
    throw std::invalid_argument("not a run-all JSON document: " + why);
}

/** Extract the "experiment" field of one object's raw text. */
std::string
experimentNameOf(const std::string &object)
{
    static constexpr std::string_view kField = "\"experiment\": \"";
    const auto at = object.find(kField);
    if (at == std::string::npos)
        badDocument("object without an \"experiment\" field");
    std::string name;
    for (std::size_t i = at + kField.size(); i < object.size(); ++i) {
        const char c = object[i];
        if (c == '\\') {
            badDocument("experiment name with escapes is not a "
                        "registry name");
        }
        if (c == '"')
            return name;
        name += c;
    }
    badDocument("unterminated experiment name");
}

/**
 * Split one run-all JSON document into its top-level objects, raw
 * bytes preserved.  A strict scanner for the renderer's own output
 * shape: '[' objects ']' with anything-goes whitespace/commas between
 * objects, string/escape/nesting tracked so braces inside values
 * cannot confuse it.
 */
std::vector<ShardEntry>
splitRunAllJson(const std::string &doc)
{
    std::size_t i = 0;
    const auto skipSeparators = [&](bool commas) {
        while (i < doc.size() &&
               (doc[i] == ' ' || doc[i] == '\n' || doc[i] == '\r' ||
                doc[i] == '\t' || (commas && doc[i] == ',')))
            ++i;
    };
    skipSeparators(false);
    if (i >= doc.size() || doc[i] != '[')
        badDocument("expected a top-level array");
    ++i;

    std::vector<ShardEntry> entries;
    for (;;) {
        skipSeparators(true);
        if (i >= doc.size())
            badDocument("unterminated array");
        if (doc[i] == ']') {
            ++i;
            break;
        }
        if (doc[i] != '{')
            badDocument("array element is not an object");
        const std::size_t start = i;
        int depth = 0;
        bool in_string = false;
        bool escaped = false;
        for (; i < doc.size(); ++i) {
            const char c = doc[i];
            if (in_string) {
                if (escaped)
                    escaped = false;
                else if (c == '\\')
                    escaped = true;
                else if (c == '"')
                    in_string = false;
                continue;
            }
            if (c == '"') {
                in_string = true;
            } else if (c == '{') {
                ++depth;
            } else if (c == '}') {
                if (--depth == 0) {
                    ++i;
                    break;
                }
            }
        }
        if (depth != 0)
            badDocument("unterminated object");
        ShardEntry entry;
        entry.text = doc.substr(start, i - start);
        entry.name = experimentNameOf(entry.text);
        entries.push_back(std::move(entry));
    }
    skipSeparators(false);
    if (i != doc.size())
        badDocument("trailing bytes after the array");
    return entries;
}

} // namespace

std::string
mergeRunAllJson(const std::vector<std::string> &documents)
{
    // Registry order is name order (Registry::all walks a name-keyed
    // map), so sorting the union by name reproduces the unsharded
    // rendering order without consulting the registry — merge works on
    // documents from binaries with catalogs this one has never seen.
    std::map<std::string, std::string> by_name;
    for (const std::string &doc : documents) {
        for (ShardEntry &entry : splitRunAllJson(doc)) {
            const auto [it, inserted] =
                by_name.emplace(std::move(entry.name),
                                std::move(entry.text));
            if (!inserted)
                throw std::invalid_argument(
                    "experiment '" + it->first +
                    "' appears in more than one shard document");
        }
    }

    std::string out = "[\n";
    bool first = true;
    for (const auto &[name, text] : by_name) {
        if (!first)
            out += ",\n";
        out += text;
        out += "\n";
        first = false;
    }
    out += "]\n";
    return out;
}

} // namespace lruleak::core
