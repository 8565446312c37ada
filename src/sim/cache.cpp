/**
 * @file
 * Cache level implementation.
 */

#include "sim/cache.hpp"

#include <algorithm>

#include "sim/way_predictor.hpp"

namespace lruleak::sim {

namespace {

/** Seed of storage set @p s's Random stream: each set gets its own, so
 *  sets do not evict in lockstep. */
std::uint64_t
setSeed(std::uint64_t seed, std::uint32_t s)
{
    return seed + s;
}

/** The RandomFill neighbourhood stream of a cache seeded @p seed. */
Xoshiro256
fillStream(std::uint64_t seed)
{
    return Xoshiro256(seed ^ 0xf177ed5ecULL);
}

} // namespace

Cache::Cache(const CacheConfig &config, PlMode pl_mode, bool way_predictor)
    : config_(config), layout_(config.line_size, config.numSets()),
      way_predictor_(way_predictor),
      shape_{config.ways, pl_mode, config.write_hit, config.write_miss},
      fill_rng_(fillStream(config.seed))
{
    config_.validate();

    // DAWG partitions the ways of every address set into secure_domains
    // independent slices, each with its own replacement state.
    std::uint32_t per_set = 1;
    if (config_.secure == SecureMode::Dawg) {
        if (config_.secure_domains == 0 ||
            config_.ways % config_.secure_domains != 0)
            throw std::invalid_argument(config_.name +
                ": DAWG domains must evenly divide the ways");
        per_set = config_.secure_domains;
        shape_.ways = config_.ways / config_.secure_domains;
    }
    if (config_.secure == SecureMode::RandomFill &&
        config_.fill_window == 0)
        throw std::invalid_argument(config_.name +
            ": RandomFill window must be non-zero");
    if (config_.secure == SecureMode::Sharp) {
        if (config_.secure_domains == 0)
            throw std::invalid_argument(config_.name +
                ": SHARP needs at least one protection domain");
        if (way_predictor_ || pl_mode != PlMode::Disabled)
            throw std::invalid_argument(config_.name +
                ": SHARP composes with neither the way predictor nor "
                "PL lock bits");
        sharp_alarms_.assign(config_.secure_domains, 0);
        sharp_forced_.assign(config_.secure_domains, 0);
        sharp_denied_.assign(config_.secure_domains, 0);
    }

    const std::uint32_t sets = layout_.numSets() * per_set;
    const std::size_t lines = static_cast<std::size_t>(sets) * shape_.ways;
    tags_.assign(lines, 0);
    if (way_predictor_)
        utags_.assign(lines, 0);
    if (config_.secure == SecureMode::Sharp)
        owners_.assign(lines, kNoOwner);
    states_.reserve(sets);
    for (std::uint32_t s = 0; s < sets; ++s)
        states_.emplace_back(ReplState::make(config_.policy, shape_.ways,
                                             setSeed(config_.seed, s)));
}

void
Cache::setResult(const SetAccessResult &sr, std::uint32_t set,
                 CacheAccessResult &res) const
{
    res.hit = sr.hit;
    res.set = set;
    res.way = sr.way;
    res.filled = sr.filled;
    res.bypassed = sr.bypassed;
    res.utag_mismatch = sr.utag_mismatch;
    res.dirty_writeback = sr.dirty_writeback;
    res.write_no_alloc = sr.write_no_alloc;
    if (sr.evicted)
        res.evicted_line = layout_.compose(sr.evicted_tag, set);
}

inline void
Cache::demandResult(const SetAccessResult &sr, std::uint32_t set,
                    const MemRef &ref, CacheAccessResult &res)
{
    setResult(sr, set, res);
    counters_.record(ref.thread, sr.hit);
    if (sr.dirty_writeback)
        counters_.recordWriteback(ref.thread);
}

inline void
Cache::demandAccess(std::uint32_t storage, std::uint32_t set,
                    const MemRef &ref, LockReq lock_req,
                    CacheAccessResult &res)
{
    const std::uint16_t utag =
        way_predictor_ ? WayPredictor::utag(ref.vaddr) : 0;
    const SetAccessResult sr = cacheSet(storage).access(
        layout_.tag(ref.paddr), utag, way_predictor_, lock_req,
        ref.is_write);
    demandResult(sr, set, ref, res);
}

void
Cache::accessMiss(const MemRef &ref, CacheAccessResult &res)
{
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    const SetAccessResult sr = cacheSet(set).miss(
        layout_.tag(ref.paddr), 0, LockReq::None, ref.is_write);
    demandResult(sr, set, ref, res);
}

CacheAccessResult
Cache::access(const MemRef &ref, LockReq lock_req)
{
    // One named result: it is built in place in the caller's slot.
    CacheAccessResult res;
    if (plain() && lock_req == LockReq::None) [[likely]] {
        const std::uint32_t set = layout_.setIndex(ref.vaddr);
        const std::uint32_t way = hitPlain(ref);
        if (way != kNoWay) {
            res.hit = true;
            res.set = set;
            res.way = way;
        } else {
            // accessMiss(), spelled out so the miss costs one call.
            demandResult(cacheSet(set).miss(layout_.tag(ref.paddr), 0,
                                            LockReq::None, ref.is_write),
                         set, ref, res);
        }
    } else if (config_.secure == SecureMode::None) {
        const std::uint32_t set = layout_.setIndex(ref.vaddr);
        demandAccess(set, set, ref, lock_req, res);
    } else {
        // No explicit domain: SHARP falls back to the thread id, which
        // matches the core on single-core topologies (and keeps
        // standalone SHARP caches usable without a hierarchy).
        res = accessSecure(static_cast<std::uint32_t>(ref.thread), ref,
                           lock_req);
    }
    return res;
}

CacheAccessResult
Cache::accessFrom(std::uint32_t domain, const MemRef &ref, LockReq lock_req)
{
    return config_.secure == SecureMode::Sharp
               ? accessSecure(domain, ref, lock_req)
               : access(ref, lock_req);
}

SetAccessResult
Cache::randomFill(const MemRef &ref, std::uint32_t &fill_set)
{
    // Deterministic random neighbour within +-fill_window lines of the
    // missing address (never the missing line itself).  Line-base
    // arithmetic wraps mod 2^64, which keeps the draw well-defined near
    // address zero.
    const std::int64_t offset =
        fill_rng_.range(1, config_.fill_window) *
        (fill_rng_.chance(0.5) ? 1 : -1);
    const Addr delta = static_cast<Addr>(
        offset * static_cast<std::int64_t>(config_.line_size));
    const Addr line_mask = ~static_cast<Addr>(config_.line_size - 1);
    const Addr fill_vaddr = (ref.vaddr & line_mask) + delta;
    const Addr fill_paddr = (ref.paddr & line_mask) + delta;

    fill_set = layout_.setIndex(fill_vaddr);
    const std::uint16_t utag =
        way_predictor_ ? WayPredictor::utag(fill_vaddr) : 0;
    return cacheSet(fill_set).prefetchFill(layout_.tag(fill_paddr), utag);
}

CacheAccessResult
Cache::accessSecure(std::uint32_t domain, const MemRef &ref,
                    LockReq lock_req)
{
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    const Addr tag = layout_.tag(ref.paddr);
    CacheAccessResult res;

    if (config_.secure == SecureMode::Sharp) {
        domain %= config_.secure_domains;
        // A domain whose alarm count already crossed the threshold gets
        // its forced evictions denied outright (threshold 0 = pure
        // detector).
        const bool flagged =
            config_.sharp_alarm_threshold > 0 &&
            sharp_alarms_[domain] >= config_.sharp_alarm_threshold;

        SharpSetEvents ev;
        const SetAccessResult sr = cacheSet(set).accessSharp(
            tag, ref.is_write, domain, flagged, ev);
        sharp_alarms_[domain] += ev.alarms;
        sharp_forced_[domain] += ev.forced ? 1 : 0;
        sharp_denied_[domain] += ev.denied ? 1 : 0;

        demandResult(sr, set, ref, res);
    } else if (config_.secure == SecureMode::RandomFill &&
               cacheSet(set).probe(tag) == kNoWay) {
        // Demand miss: serve it uncached and install a random
        // neighbourhood line instead, decoupling the fill address from
        // the access address.
        std::uint32_t fill_set = 0;
        const SetAccessResult fr = randomFill(ref, fill_set);

        res.set = set;
        res.bypassed = true;
        res.write_no_alloc = ref.is_write;
        res.dirty_writeback = fr.dirty_writeback;
        if (fr.evicted)
            res.evicted_line = layout_.compose(fr.evicted_tag, fill_set);

        counters_.record(ref.thread, false);
        if (fr.dirty_writeback)
            counters_.recordWriteback(ref.thread);
    } else {
        demandAccess(storageIndex(set, ref.thread), set, ref, lock_req,
                     res);
    }
    return res;
}

void
Cache::releaseOwner(std::uint32_t domain, Addr line_base)
{
    if (config_.secure != SecureMode::Sharp)
        return;
    const MemRef ref = MemRef::load(line_base);
    cacheSet(layout_.setIndex(ref.vaddr))
        .releaseOwner(layout_.tag(ref.paddr),
                      domain % config_.secure_domains);
}

std::uint64_t
Cache::sharpAlarmsTotal() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : sharp_alarms_)
        total += v;
    return total;
}

std::uint64_t
Cache::sharpForcedTotal() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : sharp_forced_)
        total += v;
    return total;
}

std::uint64_t
Cache::sharpDeniedTotal() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : sharp_denied_)
        total += v;
    return total;
}

CacheAccessResult
Cache::prefetch(const MemRef &ref)
{
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    const std::uint16_t utag =
        way_predictor_ ? WayPredictor::utag(ref.vaddr) : 0;
    const SetAccessResult sr =
        cacheSet(storageIndex(set, ref.thread))
            .prefetchFill(layout_.tag(ref.paddr), utag);
    // A prefetch reports only what it installed and displaced, and
    // whether the displaced line owes a write-back; the demand-path
    // flags (bypass, utag) stay clear.
    CacheAccessResult res;
    res.hit = sr.hit;
    res.set = set;
    res.way = sr.way;
    res.filled = sr.filled;
    res.dirty_writeback = sr.dirty_writeback;
    if (sr.evicted)
        res.evicted_line = layout_.compose(sr.evicted_tag, set);
    if (sr.dirty_writeback)
        counters_.recordWriteback(ref.thread);
    return res;
}

bool
Cache::contains(const MemRef &ref) const
{
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    return cacheSet(storageIndex(set, ref.thread))
               .probe(layout_.tag(ref.paddr)) != kNoWay;
}

bool
Cache::steadyHits(std::span<const MemRef> refs) const
{
    if (config_.secure != SecureMode::None)
        return false;
    // Refs are an iteration's handful of lines, so a flat list of the
    // touched sets' copies beats a map.
    std::vector<std::pair<std::uint32_t, CacheSet>> copies;
    copies.reserve(refs.size());
    for (const MemRef &ref : refs) {
        const std::uint32_t set = layout_.setIndex(ref.vaddr);
        auto it = std::find_if(copies.begin(), copies.end(),
                               [set](const auto &c) { return c.first == set; });
        if (it == copies.end())
            it = copies.emplace(copies.end(), set, CacheSet(cacheSet(set)));
        const std::uint16_t utag =
            way_predictor_ ? WayPredictor::utag(ref.vaddr) : 0;
        const SetAccessResult sr =
            it->second.access(layout_.tag(ref.paddr), utag, way_predictor_,
                              LockReq::None, ref.is_write);
        if (!sr.hit || sr.utag_mismatch)
            return false;
    }
    for (const auto &[set, copy] : copies) {
        if (!(copy.view() == cacheSet(set)))
            return false;
    }
    return true;
}

CacheFlushResult
Cache::flush(const MemRef &ref)
{
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    const Addr tag = layout_.tag(ref.paddr);

    // Coherence reaches across DAWG partitions even though visibility
    // does not: clflush and back-invalidations must remove the line no
    // matter which domain installed it.
    const std::uint32_t parts =
        config_.secure == SecureMode::Dawg ? config_.secure_domains : 1;
    for (std::uint32_t d = 0; d < parts; ++d) {
        const SetFlushResult sr = cacheSet(set * parts + d).flushLine(tag);
        if (sr.present) {
            if (sr.dirty)
                counters_.recordWriteback(ref.thread);
            return CacheFlushResult{sr.present, sr.dirty};
        }
    }
    return CacheFlushResult{};
}

bool
Cache::markDirtyLine(Addr line_base)
{
    const MemRef ref = MemRef::load(line_base);
    const std::uint32_t set = layout_.setIndex(ref.vaddr);
    const Addr tag = layout_.tag(ref.paddr);

    const std::uint32_t parts =
        config_.secure == SecureMode::Dawg ? config_.secure_domains : 1;
    for (std::uint32_t d = 0; d < parts; ++d) {
        if (cacheSet(set * parts + d).markDirty(tag))
            return true;
    }
    return false;
}

void
Cache::reset(std::uint64_t seed)
{
    config_.seed = seed;
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(utags_.begin(), utags_.end(), 0);
    std::fill(owners_.begin(), owners_.end(), kNoOwner);
    for (std::uint32_t s = 0; s < states_.size(); ++s) {
        SetState &st = states_[s];
        st.valid_mask = 0;
        st.locked_mask = 0;
        st.dirty_mask = 0;
        if (config_.policy == ReplPolicyKind::Random)
            st.repl = ReplState::make(config_.policy, shape_.ways,
                                      setSeed(seed, s));
        else
            st.repl.reset();
    }
    counters_.reset();
    fill_rng_ = fillStream(seed);
    std::fill(sharp_alarms_.begin(), sharp_alarms_.end(), 0);
    std::fill(sharp_forced_.begin(), sharp_forced_.end(), 0);
    std::fill(sharp_denied_.begin(), sharp_denied_.end(), 0);
}

} // namespace lruleak::sim
