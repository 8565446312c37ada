/**
 * @file
 * Content-addressed experiment-result cache.
 *
 * A run's output is a pure function of four things: the experiment
 * name, its fully resolved parameters (defaults + overrides, which the
 * declared seed is part of), the output format, and the binary that
 * produced it.  ResultCache keys an on-disk store on the SHA-256 of
 * exactly that tuple, so
 *
 *   - a warm CI re-run of `run-all --smoke` executes nothing,
 *   - a parameter sweep that revisits a cell gets it for free,
 *   - and any change to the binary, a parameter, the seed or the
 *     format misses by construction — there is no invalidation logic
 *     to get wrong.
 *
 * A hit returns the stored artifact byte-identically (the artifact IS
 * the bytes the run would have written), which is what keeps cached
 * and fresh `run-all` documents merge-compatible.  The store is one
 * flat directory of <key>.artifact files under the configured cache
 * dir (`--cache-dir`, or the LRULEAK_CACHE environment variable); the
 * default is no caching at all.
 */

#ifndef LRULEAK_CORE_RESULT_CACHE_HPP
#define LRULEAK_CORE_RESULT_CACHE_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace lruleak::core {

/** What the cache did across one CLI invocation (the run summary). */
struct CacheCounters
{
    std::uint64_t hits = 0;    //!< artifacts served from the store
    std::uint64_t misses = 0;  //!< no entry: executed and stored
    std::uint64_t corrupt = 0; //!< entry failed its trailer check:
                               //!< executed and stored over it
    std::uint64_t skips = 0;   //!< executed without cache consultation
};

/** The counters as the CLI prints them on stderr ("cache: 12 hit,
 *  0 miss, 0 corrupt, 0 skip"). */
std::string cacheSummary(const CacheCounters &counters);

class ResultCache
{
  public:
    /**
     * @param dir store directory (created lazily on first store)
     * @param binary_hash content hash of the producing binary; every
     *        key mixes it in, so a rebuilt binary never hits stale
     *        artifacts.  Tests inject synthetic hashes; the CLI passes
     *        util::selfBinaryHashHex().
     */
    ResultCache(std::string dir, std::string binary_hash);

    /**
     * Cache key of one run: SHA-256 over (binary hash, experiment
     * name, canonicalized parameters, format token).  @p params must
     * be the *resolved* parameter map (ParamMap::values()): defaults
     * filled in and overrides applied, so two spellings of the same
     * run share a key.
     */
    std::string keyFor(std::string_view experiment,
                       const std::map<std::string, std::string> &params,
                       std::string_view format) const;

    /**
     * The stored artifact, or nullopt when there is none or it cannot
     * be served.  An entry whose length + SHA-256 trailer does not
     * match its bytes (truncated, corrupted) is reported on stderr.
     * With @p counters, the lookup is counted there as a hit, a miss
     * or a corrupt entry.
     */
    std::optional<std::string>
    fetch(const std::string &key, CacheCounters *counters = nullptr) const;

    /**
     * Store an artifact under @p key, followed by a trailer of its
     * length and SHA-256 digest that fetch() checks (atomic rename, so
     * a concurrent reader sees either nothing or the full bytes).
     * Returns false when the store cannot be written; callers treat
     * that as "cache off", never as a run failure.
     */
    bool store(const std::string &key, const std::string &artifact) const;

    const std::string &dir() const { return dir_; }

  private:
    std::string entryPath(const std::string &key) const;

    std::string dir_;
    std::string binary_hash_;
};

/**
 * Resolve the cache directory for a CLI invocation: an explicit
 * `--cache-dir` wins, else the LRULEAK_CACHE environment variable,
 * else empty (caching off).
 */
std::string resolveCacheDir(const std::string &flag_value);

} // namespace lruleak::core

#endif // LRULEAK_CORE_RESULT_CACHE_HPP
