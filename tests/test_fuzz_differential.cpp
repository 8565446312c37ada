/**
 * @file
 * Randomized differential fuzz: the four ways to drive a cache set —
 * per-access `CacheSet::access`, one `replayBatch` over a whole trace,
 * `replayBatch` over the same trace in uneven chunks, and a plain
 * array-of-structs set over the reference replacement models — must
 * stay state-bit-identical on long random traces, for every policy and
 * for way counts the targeted unit tests never exercise (including the
 * non-power-of-two 6 and 12).  A cache level (flat arrays, set views)
 * must match the same level built from standalone CacheSets step by
 * step.
 *
 * Rationale: the replay kernel specialises its inner loop per concrete
 * policy and common way count, so an off-by-one in an uncommon
 * configuration would slip past the existing 8/16-way tests while
 * silently skewing every Monte-Carlo result built on it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "reference_policies.hpp"
#include "sim/cache.hpp"
#include "sim/cache_set.hpp"
#include "sim/repl_state.hpp"
#include "sim/way_predictor.hpp"

using namespace lruleak::sim;
namespace reference = lruleak::reference;

namespace {

/**
 * Independent reference: an array-of-structs set over the reference
 * replacement models.  Deliberately separate code from CacheSet.
 */
class ReferenceSet
{
  public:
    ReferenceSet(std::uint32_t ways, ReplPolicyKind kind,
                 std::uint64_t seed)
        : ways_(ways), tags_(ways, 0), valid_(ways, false),
          policy_(reference::makePolicy(kind, ways, seed))
    {}

    struct Result
    {
        bool hit = false;
        std::uint32_t way = kNoWay;
        bool filled = false;
        bool evicted = false;
        Addr evicted_tag = 0;
    };

    Result
    access(Addr tag)
    {
        Result res;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (valid_[w] && tags_[w] == tag) {
                res.hit = true;
                res.way = w;
                policy_->touch(w);
                return res;
            }
        }
        std::uint32_t victim = kNoWay;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!valid_[w]) {
                victim = w;
                break;
            }
        }
        if (victim == kNoWay) {
            victim = policy_->selectVictim();
            res.evicted = true;
            res.evicted_tag = tags_[victim];
        }
        tags_[victim] = tag;
        valid_[victim] = true;
        policy_->onFill(victim);
        res.way = victim;
        res.filled = true;
        return res;
    }

    std::vector<std::uint8_t> stateBits() const
    {
        return policy_->stateBits();
    }
    Addr tag(std::uint32_t w) const { return tags_[w]; }
    bool valid(std::uint32_t w) const { return valid_[w]; }

  private:
    std::uint32_t ways_;
    std::vector<Addr> tags_;
    std::vector<bool> valid_;
    std::unique_ptr<reference::Policy> policy_;
};

struct FuzzCase
{
    ReplPolicyKind kind;
    std::uint32_t ways;
};

std::string
fuzzCaseName(const ::testing::TestParamInfo<FuzzCase> &info)
{
    return std::string(replPolicyName(info.param.kind)) + "_" +
           std::to_string(info.param.ways) + "way";
}

class DifferentialFuzz : public ::testing::TestWithParam<FuzzCase>
{};

/**
 * 10k-access trace over a tag space sized to the set: enough reuse for
 * hits, enough churn for steady eviction pressure.
 */
std::vector<Addr>
fuzzTrace(std::size_t n, std::uint32_t ways, std::uint64_t seed)
{
    std::vector<Addr> tags(n);
    Xoshiro256 rng(seed);
    const std::uint64_t space = ways * 3 + 1;
    for (auto &t : tags)
        t = rng.below(space);
    return tags;
}

/** Tally one per-access outcome the way replayBatch counts it. */
void
countAccess(SetBatchStats &t, const SetAccessResult &r)
{
    ++t.accesses;
    t.hits += r.hit ? 1 : 0;
    t.fills += r.filled ? 1 : 0;
    t.evictions += r.evicted ? 1 : 0;
    t.dirty_writebacks += r.dirty_writeback ? 1 : 0;
}

} // namespace

TEST_P(DifferentialFuzz, FourPathsStayStateBitIdentical)
{
    const auto [kind, ways] = GetParam();
    constexpr std::uint64_t kSeed = 4242;
    constexpr std::size_t kAccesses = 10'000;

    CacheSet per_access(ways, ReplState::make(kind, ways, kSeed));
    CacheSet replayed(ways, ReplState::make(kind, ways, kSeed));
    CacheSet chunked(ways, ReplState::make(kind, ways, kSeed));
    ReferenceSet model(ways, kind, kSeed);

    const auto trace = fuzzTrace(kAccesses, ways, kSeed ^ ways);

    // Per-access lane, checked against the reference set continuously
    // (a divergence is reported at the access that introduced it).
    SetBatchStats want;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto res =
            per_access.access(trace[i], 0, false, LockReq::None);
        const auto ref = model.access(trace[i]);
        ASSERT_EQ(res.hit, ref.hit) << "access " << i;
        ASSERT_EQ(res.way, ref.way) << "access " << i;
        ASSERT_EQ(res.filled, ref.filled) << "access " << i;
        ASSERT_EQ(res.evicted, ref.evicted) << "access " << i;
        if (ref.evicted) {
            ASSERT_EQ(res.evicted_tag, ref.evicted_tag) << "access " << i;
        }
        ASSERT_EQ(per_access.repl().stateBits(), model.stateBits())
            << "state diverged from the reference set at access " << i;
        countAccess(want, res);
    }

    // Replay lane: aggregate stats only.
    EXPECT_EQ(replayed.replayBatch(trace), want);

    // Chunked lane: the state carries across calls, so uneven chunks
    // (some empty) must add up to the one-call replay.
    std::uint64_t chunked_hits = 0;
    Xoshiro256 rng(kSeed + ways);
    for (std::size_t pos = 0, n = 0; pos < trace.size(); pos += n) {
        n = std::min<std::size_t>(rng.below(3 * ways), trace.size() - pos);
        chunked_hits +=
            chunked.replayBatch(std::span(trace).subspan(pos, n)).hits;
    }
    EXPECT_EQ(chunked_hits, want.hits);

    // End state: all four lanes bit-identical.
    EXPECT_TRUE(per_access == replayed) << "replayBatch end state diverged";
    EXPECT_TRUE(per_access == chunked) << "chunked end state diverged";
    EXPECT_EQ(per_access.repl().stateBits(), model.stateBits());
    for (std::uint32_t w = 0; w < ways; ++w) {
        EXPECT_EQ(per_access.line(w).valid, model.valid(w)) << w;
        if (model.valid(w)) {
            EXPECT_EQ(per_access.line(w).tag, model.tag(w)) << w;
        }
    }
}

namespace {

/** Way counts of the fuzz matrix, including the non-power-of-two ones
 *  (6, 12) that Tree-PLRU alone cannot represent. */
constexpr std::uint32_t kFuzzWays[] = {2, 4, 6, 8, 12, 16};

std::vector<FuzzCase>
fuzzMatrix()
{
    std::vector<FuzzCase> cases;
    for (ReplPolicyKind kind : allReplPolicyKinds()) {
        for (std::uint32_t ways : kFuzzWays) {
            // Tree-PLRU is a binary tree: power-of-two ways only (its
            // constructor rejects the rest; covered below).
            if (kind == ReplPolicyKind::TreePlru &&
                (ways & (ways - 1)) != 0)
                continue;
            cases.push_back(FuzzCase{kind, ways});
        }
    }
    return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllPoliciesAllWays, DifferentialFuzz,
                         ::testing::ValuesIn(fuzzMatrix()), fuzzCaseName);

// ------------------------------------------------------ write-path fuzz

namespace {

/** One write-path fuzz configuration: policy x write-policy combo. */
struct WriteFuzzCase
{
    ReplPolicyKind kind;
    WriteHitPolicy write_hit;
    WriteMissPolicy write_miss;
};

std::string
writeFuzzCaseName(const ::testing::TestParamInfo<WriteFuzzCase> &info)
{
    return std::string(replPolicyName(info.param.kind)) + "_" +
           std::string(writeHitPolicyName(info.param.write_hit)) + "_" +
           std::string(writeMissPolicyName(info.param.write_miss));
}

class WritePathFuzz : public ::testing::TestWithParam<WriteFuzzCase>
{};

std::vector<WriteFuzzCase>
writeFuzzMatrix()
{
    std::vector<WriteFuzzCase> cases;
    for (ReplPolicyKind kind : allReplPolicyKinds())
        for (WriteHitPolicy wh :
             {WriteHitPolicy::WriteBack, WriteHitPolicy::WriteThrough})
            for (WriteMissPolicy wm : {WriteMissPolicy::WriteAllocate,
                                       WriteMissPolicy::NoWriteAllocate})
                cases.push_back(WriteFuzzCase{kind, wh, wm});
    return cases;
}

} // namespace

/**
 * Randomized read/write traces through three paths: per-access stores,
 * per-access loads and the replay kernel.  Two lanes issue the stores
 * per access; one issues the loads per access too, the other replays
 * each run of loads between stores through one replayBatch.  After
 * every run both must agree on the tallies and on the whole set (every
 * dirty bit), for all six policies under all four write-policy
 * combinations.  The kernel stores nothing itself, but its load fills
 * evict lines the stores dirtied, so this is the test that keeps its
 * dirty-mask upkeep honest.
 */
TEST_P(WritePathFuzz, ThreePathsAgreeOnDirtyStateAndWritebacks)
{
    const auto [kind, write_hit, write_miss] = GetParam();
    constexpr std::uint32_t kWays = 8;
    constexpr std::uint64_t kSeed = 20200415;
    constexpr std::size_t kAccesses = 10'000;

    CacheSet per_access(kWays, ReplState::make(kind, kWays, kSeed),
                        PlMode::Disabled, write_hit, write_miss);
    CacheSet mixed(kWays, ReplState::make(kind, kWays, kSeed),
                   PlMode::Disabled, write_hit, write_miss);

    // ~1/3 stores over a tag space with steady eviction pressure.
    std::vector<Addr> tags(kAccesses);
    std::vector<std::uint8_t> writes(kAccesses);
    Xoshiro256 rng(kSeed ^ static_cast<std::uint64_t>(kind));
    for (std::size_t i = 0; i < kAccesses; ++i) {
        tags[i] = rng.below(kWays * 3 + 1);
        writes[i] = rng.chance(1.0 / 3.0) ? 1 : 0;
    }

    std::uint64_t load_writebacks = 0;
    for (std::size_t i = 0; i < kAccesses;) {
        if (writes[i] != 0) {
            per_access.access(tags[i], 0, false, LockReq::None, true);
            mixed.access(tags[i], 0, false, LockReq::None, true);
            ++i;
            continue;
        }
        const std::size_t begin = i;
        SetBatchStats want;
        for (; i < kAccesses && writes[i] == 0; ++i)
            countAccess(want,
                        per_access.access(tags[i], 0, false, LockReq::None));
        const auto got = mixed.replayBatch(
            std::span<const Addr>(tags).subspan(begin, i - begin));
        ASSERT_EQ(got, want) << "load run at access " << begin;
        ASSERT_TRUE(per_access == mixed) << "load run at access " << begin;
        load_writebacks += got.dirty_writebacks;
    }

    // Write-policy invariants the whole trace must respect.
    if (write_hit == WriteHitPolicy::WriteThrough) {
        EXPECT_EQ(per_access.dirtyMask(), 0u)
            << "a write-through set must never hold a dirty line";
        EXPECT_EQ(load_writebacks, 0u);
    } else {
        EXPECT_GT(load_writebacks, 0u) << "no load evicted a dirty line";
    }
    EXPECT_EQ(per_access.dirtyMask() & ~per_access.validMask(), 0u)
        << "dirty bits must annotate valid lines only";
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesAllWritePolicies, WritePathFuzz,
                         ::testing::ValuesIn(writeFuzzMatrix()),
                         writeFuzzCaseName);

// ----------------------------------------------------------- SHARP fuzz

namespace {

class SharpFuzz : public ::testing::TestWithParam<FuzzCase>
{};

std::vector<FuzzCase>
sharpFuzzMatrix()
{
    // SHARP guards the shared LLC, so the interesting way counts are the
    // wide ones; keep one narrow case for the corner where a couple of
    // owners can already wedge the whole set.
    std::vector<FuzzCase> cases;
    for (ReplPolicyKind kind : allReplPolicyKinds())
        for (std::uint32_t ways : {4u, 8u, 16u})
            cases.push_back(FuzzCase{kind, ways});
    return cases;
}

} // namespace

/**
 * With a single accessing domain no way is ever foreign-owned, so the
 * SHARP path must never alarm and must drive the replacement state
 * through exactly the same call sequence as the plain path: results and
 * state bits stay identical access by access (the documented
 * "bit-identical in the single-owner regime" contract of accessSharp).
 */
TEST_P(SharpFuzz, SingleOwnerTraceMatchesPlainAccessBitForBit)
{
    const auto [kind, ways] = GetParam();
    constexpr std::uint64_t kSeed = 77001;
    constexpr std::size_t kAccesses = 10'000;

    CacheSet plain(ways, ReplState::make(kind, ways, kSeed));
    CacheSet sharp(ways, ReplState::make(kind, ways, kSeed));

    Xoshiro256 rng(kSeed ^ ways);
    SharpSetEvents ev;
    for (std::size_t i = 0; i < kAccesses; ++i) {
        const Addr tag = rng.below(ways * 3 + 1);
        const bool write = rng.chance(1.0 / 3.0);
        const auto a = plain.access(tag, 0, false, LockReq::None, write);
        const auto b = sharp.accessSharp(tag, write, /*domain=*/0,
                                         /*flagged=*/false, ev);
        ASSERT_EQ(a.hit, b.hit) << "access " << i;
        ASSERT_EQ(a.way, b.way) << "access " << i;
        ASSERT_EQ(a.filled, b.filled) << "access " << i;
        ASSERT_EQ(a.evicted, b.evicted) << "access " << i;
        if (a.evicted) {
            ASSERT_EQ(a.evicted_tag, b.evicted_tag) << "access " << i;
        }
        ASSERT_EQ(a.dirty_writeback, b.dirty_writeback) << "access " << i;
        ASSERT_EQ(plain.repl(), sharp.repl())
            << "replacement state diverged at access " << i;
    }
    EXPECT_EQ(ev.alarms, 0u)
        << "a single-owner trace must never trip a SHARP alarm";
    EXPECT_EQ(plain.validMask(), sharp.validMask());
    EXPECT_EQ(plain.dirtyMask(), sharp.dirtyMask());
    for (std::uint32_t w = 0; w < ways; ++w)
        EXPECT_EQ(plain.line(w).tag, sharp.line(w).tag) << w;
}

/**
 * Multi-owner random traces: a fill may displace a foreign-owned line
 * only through the forced branch (every way foreign-owned), and that
 * branch always raised at least one alarm first.  Flagged domains never
 * get a forced eviction at all — their fill is denied and the set is
 * left untouched.
 */
TEST_P(SharpFuzz, ForeignEvictionImpliesAlarmOrDenial)
{
    const auto [kind, ways] = GetParam();
    constexpr std::uint64_t kSeed = 77002;
    constexpr std::size_t kAccesses = 10'000;
    constexpr std::uint32_t kDomains = 3;

    CacheSet sharp(ways, ReplState::make(kind, ways, kSeed));
    Xoshiro256 rng(kSeed ^ ways);

    std::uint64_t alarms = 0, forced = 0, denied = 0;
    std::vector<std::uint32_t> owners_before(ways);
    for (std::size_t i = 0; i < kAccesses; ++i) {
        const Addr tag = rng.below(ways * 2 + 3);
        const std::uint32_t domain = rng.below(kDomains);
        const bool flagged = domain == kDomains - 1;
        for (std::uint32_t w = 0; w < ways; ++w)
            owners_before[w] = sharp.owner(w);
        const std::uint32_t valid_before = sharp.validMask();

        SharpSetEvents ev;
        const auto res =
            sharp.accessSharp(tag, false, domain, flagged, ev);
        alarms += ev.alarms;
        forced += ev.forced ? 1 : 0;
        denied += ev.denied ? 1 : 0;

        if (res.evicted) {
            const std::uint32_t prev = owners_before[res.way];
            if (prev != kNoOwner && prev != domain) {
                ASSERT_TRUE(ev.forced)
                    << "access " << i << ": foreign-owned way " << res.way
                    << " displaced outside the forced branch";
                ASSERT_GE(ev.alarms, 1u)
                    << "access " << i << ": forced eviction without alarm";
            }
        }
        if (ev.denied) {
            ASSERT_TRUE(flagged) << "access " << i;
            ASSERT_TRUE(res.bypassed) << "access " << i;
            ASSERT_FALSE(res.filled) << "access " << i;
            ASSERT_EQ(sharp.validMask(), valid_before)
                << "access " << i << ": a denied fill must not touch the set";
        }
        if (res.hit) {
            ASSERT_EQ(sharp.owner(res.way), domain)
                << "access " << i << ": a hit must transfer ownership";
        }
    }
    // The contended trace must actually exercise the refusal machinery,
    // or the invariants above were vacuous.
    EXPECT_GT(alarms, 0u);
    EXPECT_GT(forced + denied, 0u);
}

/** Alarm / forced / denial tallies are a pure function of the seed. */
TEST_P(SharpFuzz, AlarmCountsDeterministicPerSeed)
{
    const auto [kind, ways] = GetParam();

    auto runTrace = [&](std::uint64_t seed) {
        CacheSet sharp(ways, ReplState::make(kind, ways, seed));
        Xoshiro256 rng(seed ^ ways);
        std::uint64_t alarms = 0, forced = 0, denied = 0;
        for (std::size_t i = 0; i < 5'000; ++i) {
            const Addr tag = rng.below(ways * 2 + 3);
            const std::uint32_t domain = rng.below(3u);
            SharpSetEvents ev;
            sharp.accessSharp(tag, false, domain, domain == 2, ev);
            alarms += ev.alarms;
            forced += ev.forced ? 1 : 0;
            denied += ev.denied ? 1 : 0;
        }
        return std::tuple{alarms, forced, denied};
    };

    EXPECT_EQ(runTrace(11), runTrace(11));
    EXPECT_EQ(runTrace(12), runTrace(12));
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesSharp, SharpFuzz,
                         ::testing::ValuesIn(sharpFuzzMatrix()),
                         fuzzCaseName);

TEST(DifferentialFuzz, TreePlruRejectsNonPowerOfTwoWaysEverywhere)
{
    // Both the value core and the reference model must refuse the way
    // counts the fuzz matrix skips, so the skip hides no behaviour.
    for (std::uint32_t ways : {6u, 12u}) {
        EXPECT_THROW(ReplState::make(ReplPolicyKind::TreePlru, ways),
                     std::invalid_argument) << ways;
        EXPECT_THROW(reference::makePolicy(ReplPolicyKind::TreePlru, ways),
                     std::invalid_argument) << ways;
    }
}

// ------------------------------------------------- flat level storage fuzz

namespace {

/** One cache-level configuration the flat-storage fuzz replays. */
struct LevelCase
{
    std::string name;
    CacheConfig config;
    PlMode pl_mode = PlMode::Disabled;
    bool way_predictor = false;
};

/** A 4-set level: small enough to compare every set after every step. */
CacheConfig
smallLevel(ReplPolicyKind kind, std::uint32_t ways = 8)
{
    CacheConfig c;
    c.name = "fuzz";
    c.size_bytes = 4 * ways * 64;
    c.ways = ways;
    c.policy = kind;
    c.seed = 1234;
    return c;
}

std::vector<LevelCase>
levelMatrix()
{
    std::vector<LevelCase> cases;
    const auto wh = {WriteHitPolicy::WriteBack, WriteHitPolicy::WriteThrough};
    const auto wm = {WriteMissPolicy::WriteAllocate,
                     WriteMissPolicy::NoWriteAllocate};
    for (ReplPolicyKind kind : allReplPolicyKinds()) {
        const std::string policy(replPolicyName(kind));
        for (WriteHitPolicy h : wh) {
            for (WriteMissPolicy m : wm) {
                CacheConfig c = smallLevel(kind);
                c.write_hit = h;
                c.write_miss = m;
                cases.push_back({policy + "_" + writeHitPolicyName(h) + "_" +
                                     writeMissPolicyName(m),
                                 c});
            }
        }
        for (PlMode pl : {PlMode::Original, PlMode::FixedLruLock})
            cases.push_back({policy + (pl == PlMode::Original
                                           ? "_PlOriginal"
                                           : "_PlFixedLruLock"),
                             smallLevel(kind), pl});
        cases.push_back({policy + "_WayPredictor", smallLevel(kind),
                         PlMode::Disabled, true});

        CacheConfig dawg = smallLevel(kind);
        dawg.secure = SecureMode::Dawg;
        cases.push_back({policy + "_Dawg", dawg});

        CacheConfig fill = smallLevel(kind);
        fill.secure = SecureMode::RandomFill;
        fill.fill_window = 6;
        cases.push_back({policy + "_RandomFill", fill});
        cases.push_back({policy + "_RandomFillWayPredictor", fill,
                         PlMode::Disabled, true});

        for (std::uint32_t threshold : {0u, 4u}) {
            CacheConfig sharp = smallLevel(kind, 4);
            sharp.secure = SecureMode::Sharp;
            sharp.secure_domains = 3;
            sharp.sharp_alarm_threshold = threshold;
            cases.push_back({policy + "_Sharp" + std::to_string(threshold),
                             sharp});
        }
    }
    return cases;
}

/**
 * The level as standalone CacheSets: one per storage set, seeded and
 * shaped as the Cache builds them (storage set s runs its Random stream
 * from seed + s, the RandomFill stream starts at seed ^ 0xf177ed5ec;
 * DAWG set s's partition d is storage set s * domains + d), with the
 * level's routing, RandomFill draws, SHARP bookkeeping and counters
 * written out here.
 */
class LevelModel
{
  public:
    LevelModel(const CacheConfig &c, PlMode pl_mode, bool way_predictor)
        : alarms(c.secure_domains, 0), forced(c.secure_domains, 0),
          denied(c.secure_domains, 0), c_(c),
          layout_(c.line_size, c.numSets()), way_predictor_(way_predictor),
          parts_(c.secure == SecureMode::Dawg ? c.secure_domains : 1),
          fill_rng_(c.seed ^ 0xf177ed5ecULL)
    {
        const std::uint32_t ways = c.ways / parts_;
        for (std::uint32_t s = 0; s < c.numSets() * parts_; ++s) {
            sets.emplace_back(ways,
                              ReplState::make(c.policy, ways, c.seed + s),
                              pl_mode, c.write_hit, c.write_miss);
        }
    }

    CacheAccessResult
    access(std::uint32_t domain, const MemRef &ref, LockReq lock_req)
    {
        const std::uint32_t set = layout_.setIndex(ref.vaddr);
        const Addr tag = layout_.tag(ref.paddr);
        CacheAccessResult res;
        res.set = set;
        SetAccessResult sr;
        if (c_.secure == SecureMode::Sharp) {
            domain %= c_.secure_domains;
            const bool flagged = c_.sharp_alarm_threshold > 0 &&
                                 alarms[domain] >= c_.sharp_alarm_threshold;
            SharpSetEvents ev;
            sr = sets[set].accessSharp(tag, ref.is_write, domain, flagged, ev);
            alarms[domain] += ev.alarms;
            forced[domain] += ev.forced ? 1 : 0;
            denied[domain] += ev.denied ? 1 : 0;
        } else if (c_.secure == SecureMode::RandomFill &&
                   sets[set].probe(tag) == kNoWay) {
            const std::int64_t offset = fill_rng_.range(1, c_.fill_window) *
                                        (fill_rng_.chance(0.5) ? 1 : -1);
            const Addr delta = static_cast<Addr>(offset * 64);
            const Addr fill_vaddr = layout_.lineBase(ref.vaddr) + delta;
            const Addr fill_paddr = layout_.lineBase(ref.paddr) + delta;
            const std::uint32_t fill_set = layout_.setIndex(fill_vaddr);
            const SetAccessResult fr = sets[fill_set].prefetchFill(
                layout_.tag(fill_paddr),
                way_predictor_ ? WayPredictor::utag(fill_vaddr) : 0);
            res.bypassed = true;
            res.write_no_alloc = ref.is_write;
            res.dirty_writeback = fr.dirty_writeback;
            if (fr.evicted)
                res.evicted_line = layout_.compose(fr.evicted_tag, fill_set);
            counters.record(ref.thread, false);
            if (fr.dirty_writeback)
                counters.recordWriteback(ref.thread);
            return res;
        } else {
            sr = sets[set * parts_ + ref.thread % parts_].access(
                tag, way_predictor_ ? WayPredictor::utag(ref.vaddr) : 0,
                way_predictor_, lock_req, ref.is_write);
        }
        res.hit = sr.hit;
        res.way = sr.way;
        res.filled = sr.filled;
        res.bypassed = sr.bypassed;
        res.utag_mismatch = sr.utag_mismatch;
        res.dirty_writeback = sr.dirty_writeback;
        res.write_no_alloc = sr.write_no_alloc;
        if (sr.evicted)
            res.evicted_line = layout_.compose(sr.evicted_tag, set);
        counters.record(ref.thread, sr.hit);
        if (sr.dirty_writeback)
            counters.recordWriteback(ref.thread);
        return res;
    }

    /** Cache::flush: the first partition holding the line drops it. */
    CacheFlushResult
    flush(const MemRef &ref)
    {
        const std::uint32_t set = layout_.setIndex(ref.vaddr);
        for (std::uint32_t d = 0; d < parts_; ++d) {
            const SetFlushResult f =
                sets[set * parts_ + d].flushLine(layout_.tag(ref.paddr));
            if (f.present) {
                if (f.dirty)
                    counters.recordWriteback(ref.thread);
                return CacheFlushResult{true, f.dirty};
            }
        }
        return CacheFlushResult{};
    }

    bool
    markDirtyLine(Addr line)
    {
        const std::uint32_t set = layout_.setIndex(line);
        for (std::uint32_t d = 0; d < parts_; ++d) {
            if (sets[set * parts_ + d].markDirty(layout_.tag(line)))
                return true;
        }
        return false;
    }

    /** Cache::prefetch: only hit, set, way, filled, the victim and
     *  its write-back. */
    CacheAccessResult
    prefetch(const MemRef &ref)
    {
        const std::uint32_t set = layout_.setIndex(ref.vaddr);
        const SetAccessResult sr =
            sets[set * parts_ + ref.thread % parts_].prefetchFill(
                layout_.tag(ref.paddr),
                way_predictor_ ? WayPredictor::utag(ref.vaddr) : 0);
        CacheAccessResult res;
        res.hit = sr.hit;
        res.set = set;
        res.way = sr.way;
        res.filled = sr.filled;
        res.dirty_writeback = sr.dirty_writeback;
        if (sr.evicted)
            res.evicted_line = layout_.compose(sr.evicted_tag, set);
        if (sr.dirty_writeback)
            counters.recordWriteback(ref.thread);
        return res;
    }

    void
    releaseOwner(std::uint32_t domain, Addr line)
    {
        if (c_.secure == SecureMode::Sharp)
            sets[layout_.setIndex(line)].releaseOwner(
                layout_.tag(line), domain % c_.secure_domains);
    }

    bool
    contains(const MemRef &ref) const
    {
        const std::uint32_t set = layout_.setIndex(ref.vaddr);
        return sets[set * parts_ + ref.thread % parts_]
                   .probe(layout_.tag(ref.paddr)) != kNoWay;
    }

    static std::uint64_t
    total(const std::vector<std::uint64_t> &v)
    {
        std::uint64_t t = 0;
        for (const std::uint64_t x : v)
            t += x;
        return t;
    }

    std::vector<CacheSet> sets;
    PerfCounters counters;
    std::vector<std::uint64_t> alarms, forced, denied;

  private:
    CacheConfig c_;
    AddressLayout layout_;
    bool way_predictor_;
    std::uint32_t parts_;
    Xoshiro256 fill_rng_;
};

/** How often the stream reached each access outcome. */
struct PathTally
{
    std::uint64_t evictions = 0, dirty_writebacks = 0, bypasses = 0,
                  utag_mismatches = 0, no_allocates = 0;

    void
    add(const CacheAccessResult &r)
    {
        evictions += r.evicted_line ? 1 : 0;
        dirty_writebacks += r.dirty_writeback ? 1 : 0;
        bypasses += r.bypassed ? 1 : 0;
        utag_mismatches += r.utag_mismatch ? 1 : 0;
        no_allocates += r.write_no_alloc ? 1 : 0;
    }
};

void
expectSameResult(const CacheAccessResult &a, const CacheAccessResult &b,
                 std::size_t step)
{
    ASSERT_EQ(a.hit, b.hit) << "step " << step;
    ASSERT_EQ(a.set, b.set) << "step " << step;
    ASSERT_EQ(a.way, b.way) << "step " << step;
    ASSERT_EQ(a.filled, b.filled) << "step " << step;
    ASSERT_EQ(a.bypassed, b.bypassed) << "step " << step;
    ASSERT_EQ(a.utag_mismatch, b.utag_mismatch) << "step " << step;
    ASSERT_EQ(a.dirty_writeback, b.dirty_writeback) << "step " << step;
    ASSERT_EQ(a.write_no_alloc, b.write_no_alloc) << "step " << step;
    ASSERT_EQ(a.evicted_line, b.evicted_line) << "step " << step;
}

class FlatStorageFuzz : public ::testing::TestWithParam<LevelCase>
{};

} // namespace

/**
 * A Cache keeps every level in flat arrays (one tag array, one record
 * per set, utags and owners only when the level has them) and runs the
 * set algorithms on views of it.  Replaying one randomized stream of
 * demand accesses, flushes, write-back landings, prefetches
 * and SHARP releases through a Cache and through standalone CacheSets
 * must give identical results, identical PerfCounters and SHARP
 * tallies, and identical set state after every step.
 */
TEST_P(FlatStorageFuzz, CacheMatchesStandaloneSetsStepByStep)
{
    const LevelCase &lc = GetParam();
    Cache cache(lc.config, lc.pl_mode, lc.way_predictor);
    LevelModel model(lc.config, lc.pl_mode, lc.way_predictor);
    ASSERT_EQ(cache.storageSets(), model.sets.size());

    const AddressLayout &layout = cache.layout();
    Xoshiro256 rng(lc.config.seed ^ std::hash<std::string>{}(lc.name));
    PathTally tally;
    for (std::size_t step = 0; step < 3000; ++step) {
        const Addr line = layout.compose(
            rng.below(lc.config.ways * 3),
            static_cast<std::uint32_t>(rng.below(cache.numSets())));
        // A VA alias that keeps the set index but changes the utag.
        const Addr alias = rng.chance(0.2) ? 0x100000 : 0;
        const MemRef ref{line + alias, line,
                         static_cast<ThreadId>(rng.below(3)),
                         rng.chance(1.0 / 3.0)};
        const double op = rng.uniform();
        if (op < 0.6) {
            LockReq req = LockReq::None;
            if (lc.pl_mode != PlMode::Disabled && rng.chance(0.3))
                req = rng.chance(0.6) ? LockReq::Lock : LockReq::Unlock;
            const auto domain = static_cast<std::uint32_t>(rng.below(4));
            const bool from = rng.chance(0.5);
            const CacheAccessResult got =
                from ? cache.accessFrom(domain, ref, req)
                     : cache.access(ref, req);
            const CacheAccessResult want = model.access(
                from ? domain : static_cast<std::uint32_t>(ref.thread), ref,
                req);
            expectSameResult(got, want, step);
            tally.add(got);
        } else if (op < 0.8) {
            const CacheFlushResult got = cache.flush(ref);
            const CacheFlushResult want = model.flush(ref);
            ASSERT_EQ(got.present, want.present) << "step " << step;
            ASSERT_EQ(got.dirty, want.dirty) << "step " << step;
        } else if (op < 0.88) {
            ASSERT_EQ(cache.markDirtyLine(line), model.markDirtyLine(line))
                << "step " << step;
        } else if (op < 0.94) {
            expectSameResult(cache.prefetch(ref), model.prefetch(ref), step);
        } else {
            const auto domain = static_cast<std::uint32_t>(rng.below(3));
            cache.releaseOwner(domain, line);
            model.releaseOwner(domain, line);
        }
        if (HasFatalFailure())
            return;

        ASSERT_EQ(cache.contains(ref), model.contains(ref)) << "step " << step;
        for (std::uint32_t s = 0; s < cache.storageSets(); ++s) {
            ASSERT_TRUE(cache.cacheSet(s) == model.sets[s].view())
                << "set " << s << " diverged at step " << step;
        }
        const LevelStats &x = cache.counters().total();
        const LevelStats &y = model.counters.total();
        ASSERT_EQ(x.accesses, y.accesses) << "step " << step;
        ASSERT_EQ(x.hits, y.hits) << "step " << step;
        ASSERT_EQ(x.misses, y.misses) << "step " << step;
        ASSERT_EQ(x.writebacks, y.writebacks) << "step " << step;
        for (ThreadId t = 0; t < 3; ++t) {
            const LevelStats a = cache.counters().forThread(t);
            const LevelStats b = model.counters.forThread(t);
            ASSERT_EQ(a.accesses, b.accesses) << "thread " << t;
            ASSERT_EQ(a.hits, b.hits) << "thread " << t;
            ASSERT_EQ(a.writebacks, b.writebacks) << "thread " << t;
        }
        ASSERT_EQ(cache.sharpAlarmsTotal(), model.total(model.alarms));
        ASSERT_EQ(cache.sharpForcedTotal(), model.total(model.forced));
        ASSERT_EQ(cache.sharpDeniedTotal(), model.total(model.denied));
    }

    // The stream really reached the paths the case names.
    const CacheConfig &c = lc.config;
    EXPECT_GT(tally.evictions, 0u);
    EXPECT_GT(tally.dirty_writebacks, 0u);
    if (lc.pl_mode != PlMode::Disabled ||
        c.secure == SecureMode::RandomFill) {
        EXPECT_GT(tally.bypasses, 0u);
    }
    if (lc.way_predictor) {
        EXPECT_GT(tally.utag_mismatches, 0u);
    }
    if (c.write_miss == WriteMissPolicy::NoWriteAllocate ||
        c.secure == SecureMode::RandomFill) {
        EXPECT_GT(tally.no_allocates, 0u);
    }
    if (c.secure == SecureMode::Sharp) {
        EXPECT_GT(cache.sharpAlarmsTotal(), 0u);
        EXPECT_GT(cache.sharpForcedTotal(), 0u);
        if (c.sharp_alarm_threshold > 0) {
            EXPECT_GT(cache.sharpDeniedTotal(), 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLevelShapes, FlatStorageFuzz, ::testing::ValuesIn(levelMatrix()),
    [](const ::testing::TestParamInfo<LevelCase> &info) {
        return info.param.name;
    });
