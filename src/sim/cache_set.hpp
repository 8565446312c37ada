/**
 * @file
 * One set of a set-associative cache: tags, valid/lock/dirty bits,
 * utags, SHARP owners and the per-set replacement state machine.
 *
 * Storage is flat and per level (see cache.hpp): one tag array of
 * sets x ways, one `SetState` record per set (the three bitmasks and
 * the inline `ReplState`), a utag array only when the level has the
 * way predictor and an owner array only under SHARP.  The set
 * algorithms are written once, against `SetView`, a five-pointer view
 * of one set's slice of that storage; `ConstSetView` is its read-only
 * base and holds only pointers to const.  `CacheSet` is a standalone
 * set that owns one set's storage inline and runs the same code — the
 * tests, `lruleak bench` and the Monte-Carlo experiments use it.  It is
 * a value type: cheap to copy, no heap blocks.  It keeps its view of
 * itself private, so a view of a CacheSet exists only as the explicit
 * `view()`.
 *
 * Besides the per-access entry point, `replayBatch` replays a whole
 * load sequence with the policy dispatch hoisted out of the loop, for
 * its state effect and aggregate tallies only — the hot path Table I's
 * Monte-Carlo loops and `lruleak bench` replay sequences through.
 */

#ifndef LRULEAK_SIM_CACHE_SET_HPP
#define LRULEAK_SIM_CACHE_SET_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "sim/address.hpp"
#include "sim/repl_state.hpp"
#include "sim/write_policy.hpp"

namespace lruleak::sim {

/** Lock request carried by an access (PL cache, Section IX-B). */
enum class LockReq
{
    None,   //!< plain load/store
    Lock,   //!< set the lock bit of the accessed line
    Unlock, //!< clear the lock bit of the accessed line
};

/** How lock bits interact with the replacement state. */
enum class PlMode
{
    Disabled,     //!< lock bits ignored entirely (plain cache)
    Original,     //!< paper Fig. 10 white boxes: locked lines are never
                  //!< evicted but still update the LRU state on access
    FixedLruLock, //!< + blue boxes: locked lines neither update the LRU
                  //!< state nor participate in victim selection
};

/** Per-way metadata view (assembled from the SoA storage on demand). */
struct LineState
{
    Addr tag = 0;               //!< physical tag
    bool valid = false;
    bool locked = false;        //!< PL-cache lock bit
    std::uint16_t utag = 0;     //!< AMD linear-address micro-tag
    bool dirty = false;         //!< modified since fill (write-back)
};

/**
 * Outcome of a set access.  A compact 16-byte POD: the flags share one
 * byte and the displaced tag is a plain field guarded by @c evicted —
 * every per-access call returns one, so the layout is part of the hot
 * path.
 */
struct SetAccessResult
{
    std::uint32_t way = kNoWay;
    bool hit : 1 = false;
    bool filled : 1 = false;      //!< a new line was installed
    bool bypassed : 1 = false;    //!< miss on a fully/victim-locked set,
                                  //!< handled uncached (PL cache)
    bool utag_mismatch : 1 = false; //!< hit whose utag did not match (AMD)
    bool evicted : 1 = false;     //!< @c evicted_tag holds a displaced tag
    bool dirty_writeback : 1 = false; //!< the displaced line was dirty:
                                  //!< its data must be written back
    bool write_no_alloc : 1 = false; //!< store miss under
                                  //!< no-write-allocate: nothing installed
    Addr evicted_tag = 0;         //!< tag displaced by the fill (iff
                                  //!< @c evicted)
};

/** Aggregate outcome of a stats-only batch replay. */
struct SetBatchStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t fills = 0;     //!< misses that installed a line
    std::uint64_t evictions = 0; //!< fills that displaced a valid line
    std::uint64_t dirty_writebacks = 0; //!< evictions of a dirty line

    bool operator==(const SetBatchStats &) const = default;
};

/** Outcome of removing a line (clflush / back-invalidation). */
struct SetFlushResult
{
    bool present = false; //!< the line was held by this set
    bool dirty = false;   //!< ... and was dirty: a write-back is due
};

/** Owner sentinel: the line belongs to no protection domain. */
inline constexpr std::uint32_t kNoOwner = 0xffff'ffffu;

/**
 * What one SHARP access did beyond the plain access outcome.  The cache
 * folds these into its per-domain alarm/forced/denial counters.
 */
struct SharpSetEvents
{
    std::uint32_t alarms = 0; //!< refusals: the replacement-chosen victim
                              //!< was foreign-owned (includes forced)
    bool forced = false;      //!< every way foreign-owned: the proposed
                              //!< victim was evicted anyway
    bool denied = false;      //!< forced eviction refused (requester
                              //!< flagged): the fill was bypassed
};

/**
 * What every set of one cache level shares: the way count and the lock
 * and write policies.  A level stores it once; each set view points at
 * it.
 */
struct SetShape
{
    std::uint32_t ways = 0;
    PlMode pl_mode = PlMode::Disabled;
    WriteHitPolicy write_hit = WriteHitPolicy::WriteBack;
    WriteMissPolicy write_miss = WriteMissPolicy::WriteAllocate;

    bool operator==(const SetShape &) const = default;
};

/**
 * The per-set record of a level: the valid/lock/dirty bitmasks (bit w =
 * way w) and the inline replacement state.  Tags, utags and owners live
 * in the level's flat per-way arrays beside it.
 */
struct SetState
{
    explicit SetState(ReplState state) : repl(std::move(state)) {}

    std::uint32_t valid_mask = 0;
    std::uint32_t locked_mask = 0; //!< subset of valid_mask
    std::uint32_t dirty_mask = 0;  //!< subset of valid_mask
    ReplState repl;

    bool operator==(const SetState &) const = default;
};

/**
 * Read-only view of one set: the level's shape, the set's record and
 * its slice of the level's tag array, plus its utag slice (levels with
 * the way predictor) and owner slice (SHARP levels).  A view is five
 * pointers; it never owns storage.
 */
class ConstSetView
{
  public:
    ConstSetView(const SetShape &shape, const Addr *tags,
                 const SetState &state, const std::uint16_t *utags,
                 const std::uint32_t *owners)
        : shape_(&shape), tags_(tags), state_(&state), utags_(utags),
          owners_(owners)
    {
    }

    /**
     * The way holding @p tag, or kNoWay, without touching any state.
     * Branch-free: every way is compared, then the valid matches kept
     * (an invalid way still holds a tag, 0 after flushLine or reset);
     * the common 8- and 16-way shapes compare with a constant count.
     */
    std::uint32_t
    probe(Addr tag) const
    {
        std::uint32_t match;
        switch (shape_->ways) {
          case 8:
            match = matchMask<8>(tag);
            break;
          case 16:
            match = matchMask<16>(tag);
            break;
          default:
            match = matchMask<0>(tag);
            break;
        }
        match &= state_->valid_mask;
        return match != 0
                   ? static_cast<std::uint32_t>(std::countr_zero(match))
                   : kNoWay;
    }

    /** Owning domain of @p way (kNoOwner when unowned or invalid). */
    std::uint32_t
    owner(std::uint32_t way) const
    {
        return owners_ ? owners_[way] : kNoOwner;
    }

    /** Metadata of one way (assembled view). */
    LineState
    line(std::uint32_t way) const
    {
        return LineState{tags_[way],
                         ((state_->valid_mask >> way) & 1u) != 0,
                         ((state_->locked_mask >> way) & 1u) != 0,
                         utags_ ? utags_[way] : std::uint16_t{0},
                         ((state_->dirty_mask >> way) & 1u) != 0};
    }

    /** The value-semantic replacement state of this set. */
    const ReplState &repl() const { return state_->repl; }

    std::uint32_t ways() const { return shape_->ways; }

    /**
     * Valid bits as a mask (bit w = way w holds a line).  Lets audit
     * walks (the multi-core inclusion checker) skip invalid ways without
     * assembling a LineState per way.
     */
    std::uint32_t validMask() const { return state_->valid_mask; }

    /** Dirty bits as a mask (always a subset of validMask()). */
    std::uint32_t dirtyMask() const { return state_->dirty_mask; }

    PlMode plMode() const { return shape_->pl_mode; }

    /** Number of valid lines currently in the set. */
    std::uint32_t occupancy() const;

    /**
     * Equal sets: same shape, masks and replacement state, and the same
     * tag, utag and owner in every way (a missing utag or owner array
     * reads as 0 / kNoOwner).
     */
    friend bool operator==(const ConstSetView &a, const ConstSetView &b);

  protected:
    ConstSetView() = default;

    /** Bit w set iff way w's tag equals @p tag (valid or not); @p kWays
     *  = 0 reads the way count at run time. */
    template <std::uint32_t kWays>
    std::uint32_t
    matchMask(Addr tag) const
    {
        const std::uint32_t ways = kWays != 0 ? kWays : shape_->ways;
        std::uint32_t match = 0;
        for (std::uint32_t w = 0; w < ways; ++w)
            match |= std::uint32_t{tags_[w] == tag} << w;
        return match;
    }

    /** Bitmask with one bit per way. */
    std::uint32_t
    fullMask() const
    {
        return shape_->ways >= 32 ? ~0u : (1u << shape_->ways) - 1;
    }

    const SetShape *shape_ = nullptr;
    const Addr *tags_ = nullptr;
    const SetState *state_ = nullptr;
    const std::uint16_t *utags_ = nullptr;  //!< nullptr: no way predictor
    const std::uint32_t *owners_ = nullptr; //!< nullptr: not a SHARP level

  private:
    friend class CacheSet;
};

/**
 * Mutable view of one set: the one implementation of the set
 * algorithms (the paper's Fig. 10 flow chart, SHARP, the batch kernel).
 * `Cache` runs them on its flat arrays; `CacheSet` on its own storage.
 */
class SetView : public ConstSetView
{
  public:
    SetView(const SetShape &shape, Addr *tags, SetState &state,
            std::uint16_t *utags, std::uint32_t *owners)
        : ConstSetView(shape, tags, state, utags, owners)
    {
    }

    /**
     * Perform an access: hit updates replacement state (subject to the
     * PL mode); miss selects a victim, evicts it and installs @p tag.
     *
     * @param tag physical tag being accessed
     * @param utag linear-address micro-tag of the access (AMD model);
     *        pass 0 when the way predictor is disabled
     * @param check_utag when true, a tag hit whose stored utag differs
     *        from @p utag is flagged (and the stored utag is retrained);
     *        needs a utag array
     * @param lock_req PL-cache lock/unlock request
     * @param is_write store access: applies the set's write policies
     *        (dirty marking, no-allocate bypass)
     */
    SetAccessResult access(Addr tag, std::uint16_t utag, bool check_utag,
                           LockReq lock_req, bool is_write = false);

    /**
     * The hit update of access() on a plain set (no PL mode, no utag
     * check, no lock request) whose probe() found the line in @p way:
     * the replacement-state touch, and the dirty bit for a store under
     * write-back.
     */
    void
    touchHit(std::uint32_t way, bool is_write)
    {
        SetState &st = mutableState();
        st.repl.touch(way);
        if (is_write && shape_->write_hit == WriteHitPolicy::WriteBack)
            st.dirty_mask |= 1u << way;
    }

    /**
     * The miss half of access(), for a set whose probe() has just come
     * back kNoWay: the no-write-allocate bypass, or the victim choice
     * and the fill.  Same arguments as access().
     */
    SetAccessResult miss(Addr tag, std::uint16_t utag, LockReq lock_req,
                         bool is_write);

    /**
     * SHARP-protected access (SecureMode::Sharp); needs an owner array.
     * Hits behave exactly like plain access() (and re-stamp the line's
     * owner to @p domain: a cross-domain hit transfers ownership to the
     * accessor).  On a miss, the replacement-chosen victim is previewed
     * first: if it is owned by another domain the eviction is refused —
     * @p ev.alarms increments and the victim is re-selected among ways
     * that are not foreign-owned.  When *every* way is foreign-owned,
     * the original victim is evicted anyway (`ev.forced`), unless
     * @p flagged is set, in which case the fill is denied outright
     * (`ev.denied`, result.bypassed) and no state changes at all.
     *
     * With a single accessing domain no way is ever foreign, so the
     * replacement-state call sequence is identical to access() — plain
     * and SHARP traces are bit-identical in that regime.
     *
     * No utag / way-predictor or PL-lock modelling on this path (the
     * cache rejects those combinations at construction).
     */
    SetAccessResult accessSharp(Addr tag, bool is_write,
                                std::uint32_t domain, bool flagged,
                                SharpSetEvents &ev);

    /**
     * Drop @p domain's ownership of the line holding @p tag, if it is
     * present *and* currently owned by exactly that domain (a stale
     * release after an ownership transfer is a no-op).  How the
     * hierarchy reflects "the last private copy left this core" down
     * into the shared level.  @return true iff ownership was cleared.
     */
    bool releaseOwner(Addr tag, std::uint32_t domain);

    /**
     * Replay a whole load sequence (no utag checking, no lock requests,
     * no stores) purely for its state effect: no per-access results are
     * materialised, only the aggregate tallies.  The policy dispatch
     * happens once for the whole batch, so the inner loop is
     * specialised per concrete replacement state.  Sets with lock bits
     * in play (a PL mode) take the per-access path instead.
     */
    SetBatchStats replayBatch(std::span<const Addr> tags);

    /**
     * Invalidate the line holding @p tag (clflush) and report whether it
     * was present and dirty (the caller owes a write-back in that case).
     */
    SetFlushResult flushLine(Addr tag);

    /**
     * Mark the line holding @p tag dirty without touching the
     * replacement state — how a write-back from the level above lands
     * here.  @return true iff the line is present.
     */
    bool markDirty(Addr tag);

    /**
     * Install @p tag without it being a demand access (prefetch fill).
     * Updates the replacement state like any fill.  No-op if present.
     */
    SetAccessResult prefetchFill(Addr tag, std::uint16_t utag);

    using ConstSetView::repl;
    ReplState &repl() { return mutableState().repl; }

    /** Clear all lines and the replacement state. */
    void reset();

  protected:
    SetView() = default;

  private:
    // Write access to the storage.  The constructor took it mutable,
    // so casting the base's pointers back is sound.
    Addr *mutableTags() const { return const_cast<Addr *>(tags_); }
    SetState &
    mutableState() const
    {
        return const_cast<SetState &>(*state_);
    }
    std::uint16_t *
    mutableUtags() const
    {
        return const_cast<std::uint16_t *>(utags_);
    }
    std::uint32_t *
    mutableOwners() const
    {
        return const_cast<std::uint32_t *>(owners_);
    }

    void fill(std::uint32_t way, Addr tag, bool lock,
              std::uint16_t utag, bool dirty);
};

/**
 * A standalone set that owns its storage (inline, up to kMaxWays ways,
 * with utags and owners) and runs the SetView algorithms on it — the
 * set tests, `lruleak bench` and the Monte-Carlo experiments drive.
 * Value type: copy and assign freely; copies are deep.
 *
 * The view it runs on points into its own storage, so it inherits
 * SetView privately: a CacheSet cannot be sliced into a view that
 * outlives it, nor re-pointed at other storage.  `view()` hands out a
 * read-only view, valid while the set lives where it is.
 */
class CacheSet : private SetView
{
  public:
    CacheSet(std::uint32_t ways, ReplState state,
             PlMode pl_mode = PlMode::Disabled,
             WriteHitPolicy write_hit = WriteHitPolicy::WriteBack,
             WriteMissPolicy write_miss = WriteMissPolicy::WriteAllocate);

    /** Owning copy of the set @p view shows (e.g. one set of a Cache). */
    explicit CacheSet(const ConstSetView &view);

    CacheSet(const CacheSet &other);
    CacheSet &operator=(const CacheSet &other);

    /** Read-only view of this set's storage. */
    ConstSetView view() const { return *this; }

    friend bool
    operator==(const CacheSet &a, const CacheSet &b)
    {
        return a.view() == b.view();
    }

    using ConstSetView::dirtyMask;
    using ConstSetView::line;
    using ConstSetView::occupancy;
    using ConstSetView::owner;
    using ConstSetView::plMode;
    using ConstSetView::probe;
    using ConstSetView::validMask;
    using ConstSetView::ways;
    using SetView::access;
    using SetView::accessSharp;
    using SetView::flushLine;
    using SetView::markDirty;
    using SetView::prefetchFill;
    using SetView::releaseOwner;
    using SetView::repl;
    using SetView::replayBatch;
    using SetView::reset;

  private:
    /** Point the inherited view at this object's own storage. */
    void bind();

    struct Storage
    {
        SetShape shape;
        SetState state;
        std::array<Addr, kMaxWays> tags{};
        std::array<std::uint16_t, kMaxWays> utags{};
        std::array<std::uint32_t, kMaxWays> owners{};
    };
    Storage store_;
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_CACHE_SET_HPP
