/**
 * @file
 * Fleet mode: shard partitioning, the shared run-all renderer, the
 * shard-JSON merge and the content-addressed result cache.
 *
 * The load-bearing property is byte-stability: the union of any N
 * shards' `run-all --format=json` documents must be byte-identical to
 * the unsharded document, and a cache hit must reproduce the fresh
 * run's bytes exactly.  The suite proves both against the real
 * registry at smoke scale — one full catalog pass populates a cache,
 * and every shard sweep after it replays from the store, so testing
 * four different shard counts costs one run-all.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "core/experiment.hpp"
#include "core/fleet.hpp"
#include "core/result_cache.hpp"
#include "util/hash.hpp"

using namespace lruleak;
using namespace lruleak::core;

namespace {

/**
 * A scratch directory under TempDir() private to this process: ctest
 * runs every case as its own process, and parallel cases must not
 * delete each other's store.
 */
std::string
processTempDir(const std::string &name)
{
    return (std::filesystem::path(testing::TempDir()) /
            (name + "-" + std::to_string(::getpid())))
        .string();
}

// ---------------------------------------------------------------- shards

TEST(ShardSpec, ParsesWellFormedSpecs)
{
    const ShardSpec s = parseShardSpec("2/5");
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(parseShardSpec("0/1").count, 1u);
    EXPECT_EQ(parseShardSpec("63/64").index, 63u);
}

TEST(ShardSpec, RejectsMalformedSpecs)
{
    for (const char *bad : {"", "3", "/3", "1/", "a/3", "1/b", "1//3",
                            "1/3x", "-1/3", "3/3", "4/3", "0/0", "1/0"})
        EXPECT_THROW(parseShardSpec(bad), std::invalid_argument)
            << "accepted '" << bad << "'";
}

TEST(Shard, HashIsPinnedFnv1a)
{
    // shardOf must stay a pure, stable function of the name — pin the
    // underlying FNV-1a against its published test vectors so a switch
    // to an order- or platform-dependent hash (std::hash, list
    // position) fails loudly.
    EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(util::fnv1a64("foobar"), 0x85944171f73967e8ULL);
    EXPECT_EQ(shardOf("foobar", 3),
              static_cast<std::uint32_t>(0x85944171f73967e8ULL % 3));
}

TEST(Shard, EveryExperimentLandsInExactlyOneShard)
{
    for (const std::uint32_t n : {1u, 2u, 3u, 7u}) {
        for (const Experiment *e : Registry::instance().all()) {
            std::uint32_t homes = 0;
            for (std::uint32_t i = 0; i < n; ++i)
                homes += inShard(e->name(), ShardSpec{i, n}) ? 1 : 0;
            EXPECT_EQ(homes, 1u) << e->name() << " under /" << n;
        }
    }
}

TEST(Shard, AssignmentIgnoresTheRestOfTheCatalog)
{
    // The shard of a name is decided by the name alone; computing it
    // before/after/among other names changes nothing.
    const std::uint32_t solo = shardOf("leakage_matrix", 5);
    for (const Experiment *e : Registry::instance().all())
        (void)shardOf(e->name(), 5);
    EXPECT_EQ(shardOf("leakage_matrix", 5), solo);
}

// ----------------------------------------------------------------- merge

/** A renderer-shaped object ('{' .. '}\n' like JsonSink emits). */
std::string
fakeObject(const std::string &name)
{
    return "{\n  \"experiment\": \"" + name +
           "\",\n  \"results\": [\n    {\"kind\": \"note\", \"text\": "
           "\"b{r}ace \\\" soup\"}\n  ]\n}\n";
}

/** Assemble rendered objects exactly like the run-all JSON renderer. */
std::string
fakeDocument(const std::vector<std::string> &names)
{
    std::string doc = "[\n";
    bool first = true;
    for (const auto &n : names) {
        doc += (first ? "" : ",\n") + fakeObject(n);
        first = false;
    }
    return doc + "]\n";
}

TEST(Merge, UnionReassemblesInNameOrder)
{
    const std::string expected = fakeDocument({"alpha", "beta", "gamma"});
    EXPECT_EQ(mergeRunAllJson({fakeDocument({"beta"}),
                               fakeDocument({"gamma", "alpha"})}),
              expected);
    // Order of the documents themselves is irrelevant too.
    EXPECT_EQ(mergeRunAllJson({fakeDocument({"gamma", "alpha"}),
                               fakeDocument({"beta"})}),
              expected);
}

TEST(Merge, EmptyShardsAreHarmless)
{
    EXPECT_EQ(mergeRunAllJson({"[\n]\n", "[\n]\n"}), "[\n]\n");
    EXPECT_EQ(mergeRunAllJson({fakeDocument({"solo"}), "[\n]\n"}),
              fakeDocument({"solo"}));
}

TEST(Merge, RejectsDuplicatesAndMalformedDocuments)
{
    EXPECT_THROW(mergeRunAllJson({fakeDocument({"dup"}),
                                  fakeDocument({"dup"})}),
                 std::invalid_argument);
    for (const char *bad :
         {"not json", "[\n{\n  \"experiment\": \"x\"\n}\n", // unterminated
          "[\n{\n  \"name\": \"x\"\n}\n]\n",                // no field
          "[\n]\ntrailing", "[\n42\n]\n"})
        EXPECT_THROW(mergeRunAllJson({bad}), std::invalid_argument)
            << "accepted: " << bad;
}

// ------------------------------------------------ cache keys and store

TEST(ResultCache, KeyChangesWithEveryTupleField)
{
    const ResultCache cache("unused-dir", "hashA");
    const std::map<std::string, std::string> params{{"seed", "1"},
                                                    {"trials", "2"}};
    const std::string base = cache.keyFor("exp", params, "json");

    EXPECT_EQ(cache.keyFor("exp", params, "json"), base); // stable
    EXPECT_NE(cache.keyFor("exp2", params, "json"), base);
    EXPECT_NE(cache.keyFor("exp", params, "table"), base);
    EXPECT_NE(cache.keyFor("exp", {{"seed", "2"}, {"trials", "2"}},
                           "json"),
              base);
    EXPECT_NE(cache.keyFor("exp", {{"seed", "1"}}, "json"), base);
    const ResultCache rebuilt("unused-dir", "hashB");
    EXPECT_NE(rebuilt.keyFor("exp", params, "json"), base);
}

TEST(ResultCache, KeySerializationIsUnambiguous)
{
    // Length-prefixing: a value containing what looks like the next
    // field must not alias it.
    const ResultCache cache("unused-dir", "h");
    EXPECT_NE(cache.keyFor("exp", {{"a", "1"}, {"b", "2"}}, "json"),
              cache.keyFor("exp", {{"a", "1b2"}}, "json"));
    EXPECT_NE(cache.keyFor("expjson", {}, ""),
              cache.keyFor("exp", {}, "json"));
}

TEST(ResultCache, StoreFetchRoundTripsArbitraryBytes)
{
    const std::string dir = processTempDir("lruleak-cache-rt");
    std::filesystem::remove_all(dir);
    const ResultCache cache(dir, "h");
    const std::string key = cache.keyFor("exp", {}, "json");

    EXPECT_FALSE(cache.fetch(key).has_value()); // cold
    std::string artifact = "line1\nline2\r\n";
    artifact += '\0';
    artifact += "\xff tail";
    ASSERT_TRUE(cache.store(key, artifact));
    const auto fetched = cache.fetch(key);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(*fetched, artifact); // byte-identical, embedded NUL kept
    std::filesystem::remove_all(dir);
}

TEST(ResultCache, ConcurrentStoresOfOneKeyBothSucceed)
{
    // Two writers of the same key must not share a tmp file: each
    // writes its own and renames it into place, so both succeed and
    // fetch serves one complete artifact, never a torn mix.
    const std::string dir = processTempDir("lruleak-cache-race");
    std::filesystem::remove_all(dir);
    const ResultCache cache(dir, "h");
    const std::string key = cache.keyFor("exp", {}, "json");
    const std::string a(1 << 20, 'a');
    const std::string b(1 << 20, 'b');

    for (int round = 0; round < 8; ++round) {
        bool ok_a = false, ok_b = false;
        std::thread ta([&] { ok_a = cache.store(key, a); });
        std::thread tb([&] { ok_b = cache.store(key, b); });
        ta.join();
        tb.join();
        EXPECT_TRUE(ok_a) << "round " << round;
        EXPECT_TRUE(ok_b) << "round " << round;
        const auto fetched = cache.fetch(key);
        ASSERT_TRUE(fetched.has_value());
        EXPECT_TRUE(*fetched == a || *fetched == b) << "round " << round;
    }
    // No tmp file is left behind.
    std::size_t entries = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    std::filesystem::remove_all(dir);
}

TEST(ResultCache, TruncatedOrCorruptedEntriesAreReportedMisses)
{
    const std::string dir = processTempDir("lruleak-cache-corrupt");
    std::filesystem::remove_all(dir);
    const ResultCache cache(dir, "h");
    const std::string cut = cache.keyFor("cut", {}, "json");
    const std::string flip = cache.keyFor("flip", {}, "json");
    const std::string artifact(4096, 'x');
    ASSERT_TRUE(cache.store(cut, artifact));
    ASSERT_TRUE(cache.store(flip, artifact));
    const auto path = [&](const std::string &key) {
        return std::filesystem::path(dir) / (key + ".artifact");
    };

    // Truncate one entry (a writer killed mid-copy) ...
    std::filesystem::resize_file(
        path(cut), std::filesystem::file_size(path(cut)) / 2);
    // ... and flip one bit of the other's artifact bytes (bit rot).
    {
        std::fstream f(path(flip),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(100);
        f.put('x' ^ 0x01);
    }

    testing::internal::CaptureStderr();
    CacheCounters counters;
    EXPECT_FALSE(cache.fetch(cut, &counters).has_value());
    EXPECT_FALSE(cache.fetch(flip, &counters).has_value());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(cut), std::string::npos) << err;
    EXPECT_NE(err.find(flip), std::string::npos) << err;
    // Counted apart from plain misses.
    EXPECT_FALSE(
        cache.fetch(cache.keyFor("absent", {}, "json"), &counters)
            .has_value());
    EXPECT_EQ(counters.corrupt, 2u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.hits, 0u);
    EXPECT_EQ(cacheSummary(counters),
              "cache: 0 hit, 1 miss, 2 corrupt, 0 skip");

    // A re-store (what a miss leads to) heals the entry.
    ASSERT_TRUE(cache.store(flip, artifact));
    const auto healed = cache.fetch(flip);
    ASSERT_TRUE(healed.has_value());
    EXPECT_EQ(*healed, artifact);
    std::filesystem::remove_all(dir);
}

TEST(ResultCache, ResolveCacheDirPrecedence)
{
    ASSERT_EQ(unsetenv("LRULEAK_CACHE"), 0);
    EXPECT_EQ(resolveCacheDir("flag"), "flag");
    EXPECT_EQ(resolveCacheDir(""), "");
    ASSERT_EQ(setenv("LRULEAK_CACHE", "/from/env", 1), 0);
    EXPECT_EQ(resolveCacheDir(""), "/from/env");
    EXPECT_EQ(resolveCacheDir("flag"), "flag"); // flag wins
    ASSERT_EQ(unsetenv("LRULEAK_CACHE"), 0);
}

// --------------------------- the real catalog, sharded and cached

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** An exclusive flock() on @p path, held for the object's lifetime. */
class FileLock
{
  public:
    explicit FileLock(const fs::path &path)
        : fd_(::open(path.c_str(), O_CREAT | O_RDWR, 0644))
    {
        if (fd_ < 0 || ::flock(fd_, LOCK_EX) != 0)
            throw std::runtime_error("cannot lock " + path.string());
    }
    ~FileLock() { ::close(fd_); }
    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

  private:
    int fd_;
};

/** Where this test binary shares results between its processes: under
 *  the build's test stash, keyed by the binary's size and mtime so a
 *  rebuilt binary never reads a stale entry. */
fs::path
stashFor(const std::string &name)
{
    const fs::path exe = fs::read_symlink("/proc/self/exe");
    return fs::path(LRULEAK_TEST_STASH_DIR) /
           (name + "-" + std::to_string(fs::file_size(exe)) + "-" +
            std::to_string(static_cast<std::uint64_t>(
                fs::last_write_time(exe).time_since_epoch().count())));
}

/**
 * One unsharded smoke-scale pass over the real registry (populating a
 * cache), then shard sweeps for several N replaying from that cache.
 * Everything downstream compares against `all`.
 *
 * ctest runs every case in its own process, so the cold pass is
 * stashed: the first process to take the stash lock runs it and
 * leaves the store, the document, the stderr text and the outcome
 * there, and the other cases read them.  The ctest fixture
 * `test_stash_reset` empties the stash first, so a suite run makes the
 * pass once.  Every case copies the store into a directory of its own.
 */
class FleetCatalogTest : public ::testing::Test
{
  protected:
    static constexpr const char *kBinary = "fleet-test-binary";

    static void
    SetUpTestSuite()
    {
        const fs::path stash = stashFor("fleet-catalog");
        fs::create_directories(stash.parent_path());
        {
            const FileLock lock(stash.string() + ".lock");
            if (!fs::exists(stash))
                runColdPass(stash);
        }
        cache_dir_ = processTempDir("lruleak-fleet-cache");
        fs::remove_all(cache_dir_);
        fs::create_directories(cache_dir_);
        if (fs::exists(stash / "store"))
            fs::copy(stash / "store", cache_dir_);
        cache_ = new ResultCache(cache_dir_, kBinary);
        all_ = readFile(stash / "all.json");
        errors_ = readFile(stash / "errors.txt");
        std::istringstream counts(readFile(stash / "outcome"));
        counts >> outcome_.ran >> outcome_.skipped >> outcome_.failures >>
            outcome_.cache.hits >> outcome_.cache.misses >>
            outcome_.cache.corrupt >> outcome_.cache.skips;
    }

    /** The cold pass into a fresh store, written beside @p stash and
     *  renamed into place. */
    static void
    runColdPass(const fs::path &stash)
    {
        const fs::path fresh = stash.string() + ".tmp";
        fs::remove_all(fresh);
        fs::create_directories(fresh);
        ResultCache cache((fresh / "store").string(), kBinary);
        RunAllOptions options;
        options.format = OutputFormat::Json;
        options.smoke = true;
        options.cache = &cache;
        std::ostringstream out, err;
        const RunAllOutcome outcome = runAllCatalog(options, out, err);
        writeFile(fresh / "all.json", out.str());
        writeFile(fresh / "errors.txt", err.str());
        writeFile(fresh / "outcome",
                  std::to_string(outcome.ran) + " " +
                      std::to_string(outcome.skipped) + " " +
                      std::to_string(outcome.failures) + " " +
                      std::to_string(outcome.cache.hits) + " " +
                      std::to_string(outcome.cache.misses) + " " +
                      std::to_string(outcome.cache.corrupt) + " " +
                      std::to_string(outcome.cache.skips));
        fs::rename(fresh, stash);
    }

    static void
    TearDownTestSuite()
    {
        delete cache_;
        cache_ = nullptr;
        std::filesystem::remove_all(cache_dir_);
    }

    static RunAllOptions
    shardOptions(std::uint32_t i, std::uint32_t n)
    {
        RunAllOptions options;
        options.format = OutputFormat::Json;
        options.smoke = true;
        options.shard = ShardSpec{i, n};
        options.cache = cache_;
        return options;
    }

    static std::string cache_dir_;
    static ResultCache *cache_;
    static RunAllOutcome outcome_;
    static std::string all_;
    static std::string errors_;
};

std::string FleetCatalogTest::cache_dir_;
ResultCache *FleetCatalogTest::cache_ = nullptr;
RunAllOutcome FleetCatalogTest::outcome_;
std::string FleetCatalogTest::all_;
std::string FleetCatalogTest::errors_;

TEST_F(FleetCatalogTest, UnshardedPassRanEverythingCold)
{
    EXPECT_EQ(errors_, "");
    EXPECT_EQ(outcome_.failures, 0u);
    EXPECT_EQ(outcome_.skipped, 0u);
    EXPECT_EQ(outcome_.ran, Registry::instance().size());
    EXPECT_EQ(outcome_.cache.misses, Registry::instance().size());
    EXPECT_EQ(outcome_.cache.hits, 0u);
    EXPECT_EQ(outcome_.cache.corrupt, 0u);
    EXPECT_EQ(outcome_.cache.skips, 0u);
}

TEST_F(FleetCatalogTest, ShardUnionIsByteIdenticalForManyCounts)
{
    const std::uint64_t catalog = Registry::instance().size();
    // 64 > catalog size: some shards must come out empty and still
    // merge cleanly.
    ASSERT_GT(64u, catalog);
    for (const std::uint32_t n : {2u, 3u, 5u, 64u}) {
        std::vector<std::string> documents;
        std::uint64_t ran = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            std::ostringstream out, err;
            const auto outcome =
                runAllCatalog(shardOptions(i, n), out, err);
            EXPECT_EQ(err.str(), "");
            EXPECT_EQ(outcome.failures, 0u);
            EXPECT_EQ(outcome.ran + outcome.skipped, catalog);
            // Warm cache: the shard replays, it never re-executes.
            EXPECT_EQ(outcome.cache.hits, outcome.ran);
            EXPECT_EQ(outcome.cache.misses, 0u);
            EXPECT_EQ(outcome.cache.corrupt, 0u);
            ran += outcome.ran;
            documents.push_back(out.str());
        }
        EXPECT_EQ(ran, catalog) << "N=" << n;
        EXPECT_EQ(mergeRunAllJson(documents), all_) << "N=" << n;
    }
}

TEST_F(FleetCatalogTest, WarmCacheRerunIsByteIdenticalWithZeroExecutions)
{
    RunAllOptions options;
    options.format = OutputFormat::Json;
    options.smoke = true;
    options.cache = cache_;
    std::ostringstream out, err;
    const auto outcome = runAllCatalog(options, out, err);
    EXPECT_EQ(out.str(), all_);
    EXPECT_EQ(outcome.cache.hits, Registry::instance().size());
    EXPECT_EQ(outcome.cache.misses, 0u);
    EXPECT_EQ(runAllSummary(options, outcome),
              "run-all: ran " +
                  std::to_string(Registry::instance().size()) +
                  ", skipped 0; cache: " +
                  std::to_string(Registry::instance().size()) +
                  " hit, 0 miss, 0 corrupt, 0 skip");
}

TEST_F(FleetCatalogTest, CorruptEntryIsCountedApartFromMisses)
{
    // Flip one artifact byte of a cheap experiment's entry: the re-run
    // reports it, counts it as corrupt (not as a miss), re-executes it
    // to the same bytes and stores it back.
    const Experiment *e = Registry::instance().find("tab2_cache_latency");
    ASSERT_NE(e, nullptr);
    const std::string key = cache_->keyFor(
        e->name(), resolveParams(e->params(), e->smokeParams()).values(),
        "json");
    const fs::path entry = fs::path(cache_dir_) / (key + ".artifact");
    ASSERT_TRUE(fs::exists(entry));
    {
        std::fstream f(entry,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(1);
        const char c = static_cast<char>(f.get());
        f.seekp(1);
        f.put(static_cast<char>(c ^ 0x01));
    }

    RunAllOptions options;
    options.format = OutputFormat::Json;
    options.smoke = true;
    options.cache = cache_;
    const auto size = Registry::instance().size();
    for (const std::uint64_t corrupt : {1u, 0u}) {
        std::ostringstream out;
        testing::internal::CaptureStderr();
        const auto outcome = runAllCatalog(options, out, std::cerr);
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(out.str(), all_);
        EXPECT_EQ(outcome.cache.hits, size - corrupt);
        EXPECT_EQ(outcome.cache.misses, 0u);
        EXPECT_EQ(outcome.cache.corrupt, corrupt);
        EXPECT_EQ(err.find(key) != std::string::npos, corrupt == 1) << err;
        EXPECT_EQ(runAllSummary(options, outcome),
                  "run-all: ran " + std::to_string(size) +
                      ", skipped 0; cache: " +
                      std::to_string(size - corrupt) + " hit, 0 miss, " +
                      std::to_string(corrupt) + " corrupt, 0 skip");
    }
}

TEST_F(FleetCatalogTest, RebuiltBinaryMissesEveryEntry)
{
    // Same store, different binary hash: nothing may be served.
    const ResultCache rebuilt(cache_dir_, "another-binary");
    const Experiment *e = Registry::instance().all().front();
    const ParamMap resolved = resolveParams(e->params(), e->smokeParams());
    EXPECT_TRUE(cache_
                    ->fetch(cache_->keyFor(e->name(), resolved.values(),
                                           "json"))
                    .has_value());
    EXPECT_FALSE(rebuilt
                     .fetch(rebuilt.keyFor(e->name(), resolved.values(),
                                           "json"))
                     .has_value());
}

TEST_F(FleetCatalogTest, ParamAndSeedChangesMiss)
{
    const Experiment *e = Registry::instance().find("trace_replay");
    ASSERT_NE(e, nullptr);
    auto smoke = e->smokeParams();
    const std::string hot_key = cache_->keyFor(
        e->name(), resolveParams(e->params(), smoke).values(), "json");
    EXPECT_TRUE(cache_->fetch(hot_key).has_value());

    auto reseeded = smoke;
    reseeded["seed"] = "987654";
    EXPECT_FALSE(
        cache_
            ->fetch(cache_->keyFor(
                e->name(),
                resolveParams(e->params(), reseeded).values(), "json"))
            .has_value());

    auto retuned = smoke;
    retuned["accesses"] = "4321";
    EXPECT_FALSE(
        cache_
            ->fetch(cache_->keyFor(
                e->name(),
                resolveParams(e->params(), retuned).values(), "json"))
            .has_value());
}

TEST_F(FleetCatalogTest, CacheHitMatchesAFreshRender)
{
    // Serve one experiment from the store and re-render it live; the
    // bytes must agree (the stored artifact IS the rendering).
    const Experiment *e = Registry::instance().all().front();
    const auto smoke = e->smokeParams();
    const auto cached = cache_->fetch(cache_->keyFor(
        e->name(), resolveParams(e->params(), smoke).values(), "json"));
    ASSERT_TRUE(cached.has_value());

    std::ostringstream os;
    const auto sink = makeSink(OutputFormat::Json, os);
    runExperiment(*e, smoke, *sink);
    EXPECT_EQ(*cached, os.str());
}

} // namespace
