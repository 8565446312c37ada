/**
 * @file
 * Fleet mode: sharded `run-all`, shard-document merge, and the shared
 * run-all renderer.
 *
 * One `run-all` saturates one machine (trial parallelism); the fleet
 * layer scales the catalog *out*:
 *
 *   - shardOf() deterministically partitions the registry by a stable
 *     hash of the experiment NAME (never by list position), so N
 *     workers running `--shard=0/N .. (N-1)/N` cover the catalog
 *     exactly once — and keep covering the same cells when unrelated
 *     experiments are added or removed;
 *
 *   - runAllCatalog() is the one implementation of the run-all
 *     document (the CLI calls it, and the fleet tests call it
 *     directly), including the shard filter and the result-cache
 *     consultation, so shard outputs are byte-compatible with the
 *     unsharded document by construction;
 *
 *   - mergeRunAllJson() unions shard JSON documents back into one:
 *     the union of any N shards is byte-identical to the unsharded
 *     `run-all --format=json`, because each experiment object's raw
 *     bytes are preserved and reassembled in registry (name) order
 *     with the exact separators the renderer uses.
 */

#ifndef LRULEAK_CORE_FLEET_HPP
#define LRULEAK_CORE_FLEET_HPP

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/result_cache.hpp"
#include "core/result_sink.hpp"

namespace lruleak::core {

/** One worker's slice of the catalog: shard @c index of @c count. */
struct ShardSpec
{
    std::uint32_t index = 0; //!< in [0, count)
    std::uint32_t count = 1;
};

/**
 * Parse "i/N" (e.g. "0/3"); throws std::invalid_argument on malformed
 * text, N == 0 or i >= N.
 */
ShardSpec parseShardSpec(const std::string &text);

/**
 * The shard an experiment name belongs to, in [0, count): FNV-1a of
 * the name modulo the shard count.  A pure function of the name — the
 * registry order, the worker, and the rest of the catalog are all
 * irrelevant.
 */
std::uint32_t shardOf(std::string_view name, std::uint32_t count);

/** Does @p name fall into @p shard? */
bool inShard(std::string_view name, const ShardSpec &shard);

/** Knobs of one run-all invocation. */
struct RunAllOptions
{
    OutputFormat format = OutputFormat::Table;
    bool smoke = false;
    std::string seed;               //!< empty: per-experiment defaults
    std::optional<ShardSpec> shard; //!< nullopt: whole catalog
    ResultCache *cache = nullptr;   //!< nullptr: caching off
};

/** What one run-all invocation did (the run summary's numbers). */
struct RunAllOutcome
{
    std::uint64_t ran = 0;     //!< experiments rendered (hit or fresh)
    std::uint64_t skipped = 0; //!< excluded by the shard filter
    std::uint64_t failures = 0;
    CacheCounters cache;
};

/**
 * Render the run-all document over the whole registry into @p out
 * (failures are reported on @p err and skipped, like the CLI always
 * did).  With a shard, only that slice of the catalog is rendered —
 * in the same registry order and with the same separators, so merging
 * the N shard documents reproduces the unsharded bytes.  With a
 * cache, each experiment is looked up before executing and stored
 * after; a hit emits the stored artifact verbatim.
 */
RunAllOutcome runAllCatalog(const RunAllOptions &options,
                            std::ostream &out, std::ostream &err);

/** The one-line run summary ("ran 12, skipped 19 (shard 0/3); cache:
 *  12 hit, 0 miss, 0 corrupt, 0 skip"). */
std::string runAllSummary(const RunAllOptions &options,
                          const RunAllOutcome &outcome);

/**
 * Union shard JSON documents (each the output of `run-all
 * --format=json`, sharded or not) into one combined document, byte-
 * identical to the unsharded renderer's output over the same
 * experiment set.  Throws std::invalid_argument on a document that is
 * not a run-all JSON array, an object without an "experiment" field,
 * or the same experiment appearing twice.
 */
std::string mergeRunAllJson(const std::vector<std::string> &documents);

} // namespace lruleak::core

#endif // LRULEAK_CORE_FLEET_HPP
