/**
 * @file
 * Configuration of one cache level.
 */

#ifndef LRULEAK_SIM_CACHE_CONFIG_HPP
#define LRULEAK_SIM_CACHE_CONFIG_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/repl_state.hpp"
#include "sim/write_policy.hpp"

namespace lruleak::sim {

/**
 * Secure-cache operating mode of one level (Section IX-B designs,
 * integrated so whole hierarchies — and therefore channel::Session —
 * run them end to end):
 *
 *  - Dawg: DAWG-style way partitioning.  The ways and the replacement
 *    state of every set are split into `secure_domains` partitions;
 *    thread t operates entirely inside partition t % domains, so
 *    lookups, fills and metadata updates never cross domains.
 *  - RandomFill: Random Fill cache.  A demand miss is served uncached
 *    and a random line from the +-`fill_window` neighbourhood is
 *    installed instead; hits (including their replacement-state
 *    update) behave normally.
 *  - Sharp: SHARP-style protected cache (Yan et al.).  Every line
 *    tracks the protection domain that currently owns it (the core
 *    whose private caches hold the line, for a shared LLC); a miss
 *    whose replacement-chosen victim belongs to *another* domain is
 *    refused and re-victimized among unowned/self-owned ways, and the
 *    requester's per-domain alarm counter increments.  When every way
 *    is foreign-owned the eviction is forced (still alarmed) — unless
 *    the requester's alarms already crossed `sharp_alarm_threshold`,
 *    in which case the fill itself is denied and the access is served
 *    uncached.  Threshold 0 = never deny (detection only).
 */
enum class SecureMode : std::uint8_t
{
    None,
    Dawg,
    RandomFill,
    Sharp,
};

/** Stable token: "none", "dawg", "randomfill", "sharp". */
constexpr std::string_view
secureModeName(SecureMode mode)
{
    switch (mode) {
      case SecureMode::None:       return "none";
      case SecureMode::Dawg:       return "dawg";
      case SecureMode::RandomFill: return "randomfill";
      case SecureMode::Sharp:      return "sharp";
    }
    return "unknown";
}

/**
 * Geometry and policy of one cache level.  All counts must be powers of
 * two; @c validate() enforces this so misconfiguration fails loudly at
 * construction instead of corrupting index math later.
 */
struct CacheConfig
{
    std::string name = "L1D";              //!< label used in stats dumps
    std::uint32_t size_bytes = 32 * 1024;  //!< total capacity
    std::uint32_t ways = 8;                //!< associativity
    std::uint32_t line_size = 64;          //!< bytes per line
    ReplPolicyKind policy = ReplPolicyKind::TreePlru;
    std::uint64_t seed = 0;                //!< Random-policy seed

    // Write-path behaviour (orthogonal axes; defaults match the
    // evaluated CPUs, whose data caches are write-back/write-allocate).
    WriteHitPolicy write_hit = WriteHitPolicy::WriteBack;
    WriteMissPolicy write_miss = WriteMissPolicy::WriteAllocate;

    // Secure-cache mode of this level (None = plain cache).
    SecureMode secure = SecureMode::None;
    std::uint32_t secure_domains = 2; //!< DAWG/SHARP protection domains
    std::uint32_t fill_window = 64;   //!< RandomFill neighbourhood (lines)
    /**
     * SHARP only: alarms a domain may raise before its forced evictions
     * are denied outright (the fill is refused, the access served
     * uncached).  0 = never deny — the alarm counters still count, so
     * SHARP degrades to a pure detector.
     */
    std::uint32_t sharp_alarm_threshold = 0;

    /** Member-wise equality (drives the session topology reuse pool). */
    bool operator==(const CacheConfig &) const = default;

    std::uint32_t
    numSets() const
    {
        return size_bytes / (ways * line_size);
    }

    void
    validate() const
    {
        auto pow2 = [](std::uint64_t v) { return v && !(v & (v - 1)); };
        if (!pow2(size_bytes) || !pow2(ways) || !pow2(line_size))
            throw std::invalid_argument(name +
                ": size, ways and line size must be powers of two");
        if (size_bytes < ways * line_size)
            throw std::invalid_argument(name + ": capacity below one set");
    }

    /** 32 KiB, 8-way, 64-set L1D as on all three evaluated CPUs. */
    static CacheConfig
    intelL1d(ReplPolicyKind policy = ReplPolicyKind::TreePlru)
    {
        return CacheConfig{"L1D", 32 * 1024, 8, 64, policy, 0};
    }

    /** 256 KiB, 8-way private L2. */
    static CacheConfig
    intelL2()
    {
        return CacheConfig{"L2", 256 * 1024, 8, 64,
                           ReplPolicyKind::TreePlru, 0};
    }

    /** 2 MiB 16-way LLC slice (scaled down to keep simulation fast). */
    static CacheConfig
    intelLlc()
    {
        return CacheConfig{"LLC", 2 * 1024 * 1024, 16, 64,
                           ReplPolicyKind::Srrip, 0};
    }
};

} // namespace lruleak::sim

#endif // LRULEAK_SIM_CACHE_CONFIG_HPP
