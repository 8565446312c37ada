/**
 * @file
 * On-disk content-addressed result store.
 */

#include "core/result_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <system_error>
#include <thread>

#include "util/hash.hpp"

namespace lruleak::core {

namespace fs = std::filesystem;

namespace {

/** Size of the trailer store() appends to every artifact. */
constexpr std::size_t kTrailerBytes = 8 + 32;

/** The artifact's length (8 bytes, little-endian) and SHA-256 digest. */
std::string
trailerFor(std::string_view artifact)
{
    std::string trailer;
    std::uint64_t len = artifact.size();
    for (int i = 0; i < 8; ++i, len >>= 8)
        trailer += static_cast<char>(len & 0xff);
    util::Sha256 h;
    h.update(artifact);
    const auto digest = h.digest();
    trailer.append(reinterpret_cast<const char *>(digest.data()),
                   digest.size());
    return trailer;
}

} // namespace

ResultCache::ResultCache(std::string dir, std::string binary_hash)
    : dir_(std::move(dir)), binary_hash_(std::move(binary_hash))
{}

std::string
ResultCache::keyFor(std::string_view experiment,
                    const std::map<std::string, std::string> &params,
                    std::string_view format) const
{
    // Length-prefix every field so no two tuples can serialize to the
    // same byte string (a params *value* containing "format=" must not
    // alias the format field).
    util::Sha256 h;
    const auto field = [&h](std::string_view text) {
        const std::string len = std::to_string(text.size()) + ":";
        h.update(len);
        h.update(text);
    };
    field("lruleak-result-v1");
    field(binary_hash_);
    field(experiment);
    field(std::to_string(params.size()));
    for (const auto &[name, value] : params) {
        field(name);
        field(value);
    }
    field(format);
    return h.hex();
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return (fs::path(dir_) / (key + ".artifact")).string();
}

std::optional<std::string>
ResultCache::fetch(const std::string &key, CacheCounters *counters) const
{
    CacheCounters unused;
    CacheCounters &count = counters ? *counters : unused;
    std::ifstream in(entryPath(key), std::ios::binary);
    if (!in) {
        ++count.misses;
        return std::nullopt;
    }
    std::ostringstream os;
    os << in.rdbuf();
    if (!in.good() && !in.eof()) {
        ++count.misses;
        return std::nullopt;
    }
    std::string bytes = os.str();
    const std::string_view view(bytes);
    if (bytes.size() < kTrailerBytes ||
        trailerFor(view.substr(0, bytes.size() - kTrailerBytes)) !=
            view.substr(bytes.size() - kTrailerBytes)) {
        std::cerr << "cache: entry " << key
                  << " is truncated or corrupt (length/SHA-256 mismatch);"
                     " not serving it\n";
        ++count.corrupt;
        return std::nullopt;
    }
    bytes.resize(bytes.size() - kTrailerBytes);
    ++count.hits;
    return bytes;
}

bool
ResultCache::store(const std::string &key, const std::string &artifact) const
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        return false;
    // Write-then-rename: the entry appears atomically under its final
    // name, so parallel shard workers sharing one cache dir can race
    // on the same key harmlessly.  The tmp name is unique per writer
    // (pid + thread + a process-wide counter), so two writers of one
    // key never truncate each other's half-written file.
    static std::atomic<std::uint64_t> writes{0};
    const std::string final_path = entryPath(key);
    const std::string tmp_path =
        final_path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(std::hash<std::thread::id>{}(
            std::this_thread::get_id())) +
        "." + std::to_string(writes.fetch_add(1));
    {
        std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << artifact << trailerFor(artifact);
        if (!out.good())
            return false;
    }
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        fs::remove(tmp_path, ec);
        return false;
    }
    return true;
}

std::string
cacheSummary(const CacheCounters &counters)
{
    return "cache: " + std::to_string(counters.hits) + " hit, " +
           std::to_string(counters.misses) + " miss, " +
           std::to_string(counters.corrupt) + " corrupt, " +
           std::to_string(counters.skips) + " skip";
}

std::string
resolveCacheDir(const std::string &flag_value)
{
    if (!flag_value.empty())
        return flag_value;
    if (const char *env = std::getenv("LRULEAK_CACHE"))
        return env;
    return {};
}

} // namespace lruleak::core
