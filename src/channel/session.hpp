/**
 * @file
 * The unified transmission pipeline: ONE path from a channel-session
 * configuration to a decoded, scored transmission, for any channel
 * design on any topology under any arbitration policy.
 *
 * Before this module the repo carried three parallel end-to-end
 * harnesses — a single-core covert runner (LRU algorithms only), a
 * cross-core runner (Algorithm 2 only) and the ad-hoc sender/receiver
 * pair loops in core/experiments.cpp — each re-implementing hierarchy
 * construction, engine wiring, calibration, decode and error scoring.
 * Session factors the pipeline once:
 *
 *   SessionConfig
 *     -> validate() it (each error names the field)
 *     -> build the topology (CacheHierarchy or MultiCoreHierarchy),
 *        which the engine drives directly
 *     -> build the carrier-geometry ChannelLayout (L1 or shared LLC)
 *     -> build one sender and the receivers: the channel's own
 *        receiver (any of the eight ChannelIds) or the K spies of a
 *        multi-spy team, each a channel::Receiver running Algorithm
 *        3's sampling clock at the session's Tr
 *     -> run under the sharing mode's ArbitrationPolicy (LowestClock,
 *        with TimeSlice nested on the time-sliced cores, or a root
 *        TimeSlice on the single-core topology)
 *     -> calibrate the decode threshold (channel::Calibration)
 *     -> window each receiver's trace (a team's rows merged
 *        any-spy-wins), strip erasures, score
 *   -> SessionResult
 *
 * The legacy entry points are gone; every experiment, bench lane and
 * example calls Session directly.  The engine runs with its default
 * knobs and the session's seed (the time-sliced schedules with a longer
 * max_cycles).  What pins the pipeline's wiring is its output: every
 * experiment's golden snapshot and full-scale digest, and the
 * transmission tests of tests/test_covert_channel.cpp.
 */

#ifndef LRULEAK_CHANNEL_SESSION_HPP
#define LRULEAK_CHANNEL_SESSION_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "channel/calibration.hpp"
#include "channel/channel_factory.hpp"
#include "channel/decoder.hpp"
#include "channel/edit_distance.hpp"
#include "exec/engine.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "sim/plcache.hpp"
#include "timing/uarch.hpp"
#include "workload/trace_file.hpp"

namespace lruleak::channel {

/** How sender and receiver share hardware. */
enum class SharingMode
{
    HyperThreaded, //!< SMT siblings on one core (Section V-A)
    TimeSliced,    //!< one context, OS scheduling (Section V-B)
    CrossCore,     //!< different cores, shared inclusive LLC (x-core)
};

/** Stable CLI token: "hyperthreaded", "timesliced", "crosscore". */
std::string_view sharingModeToken(SharingMode mode);

/** All modes, in declaration order. */
const std::vector<SharingMode> &allSharingModes();

/** Full configuration of one channel session. */
struct SessionConfig
{
    ChannelId channel = ChannelId::LruAlg1;
    SharingMode mode = SharingMode::HyperThreaded;
    timing::Uarch uarch = timing::Uarch::intelXeonE52690();

    sim::ReplPolicyKind l1_policy = sim::ReplPolicyKind::TreePlru;
    /** Shared-LLC policy; nullopt keeps the topology default (SRRIP). */
    std::optional<sim::ReplPolicyKind> llc_policy;
    sim::PlMode pl_mode = sim::PlMode::Disabled; //!< single-core only

    /**
     * Secure-cache mode of the private L1(s) (Section IX-B defenses),
     * honoured on both topologies.  Dawg partitions each L1 set's ways
     * and replacement state between the sender and receiver domains
     * (thread % domains), which is exactly what kills the L1 LRU
     * channels; RandomFill decouples the fill address from the miss
     * address.  LLC-carrier channels are unaffected by construction.
     */
    sim::SecureMode l1_secure = sim::SecureMode::None;

    /**
     * Secure-cache mode of the shared LLC (multi-core topology only;
     * ignored on single-core sessions, whose LLC the channels never
     * carry state through).  SecureMode::Sharp turns on per-line
     * ownership with eviction filtering: the cross-core receiver's walk
     * can no longer displace the sender-owned line, which is the
     * detect-and-defend scenario `sharp_defense` scores.
     */
    sim::SecureMode llc_secure = sim::SecureMode::None;

    /**
     * SHARP LLC only: alarm budget per core before its forced evictions
     * are denied (access served uncached).  0 = detection only.
     */
    std::uint32_t llc_alarm_threshold = 0;

    /**
     * Number of cooperating receiver threads (the multi-spy adversary;
     * see channel/multi_spy.hpp).  1 = the channel's own receiver.
     * Values > 1 require CrossCore + ChannelId::XCoreLruAlg2: spy j
     * runs on core 1 + j over probe-slice j, and the per-spy symbol
     * rows are merged (any-spy-wins) before scoring.
     */
    std::uint32_t spies = 1;

    /**
     * Write policy of every cache level (applied uniformly to the whole
     * topology).  Write-back + write-allocate is the default every
     * modeled machine uses; the write-through settings exist for the
     * `dirty_error_rate` ablation — a write-through level never holds a
     * dirty line, which kills the dirty-state channels.
     */
    sim::WriteHitPolicy write_hit = sim::WriteHitPolicy::WriteBack;
    sim::WriteMissPolicy write_miss = sim::WriteMissPolicy::WriteAllocate;

    std::uint32_t d = 0;          //!< receiver init depth; 0 = default
    std::uint64_t tr = 600;       //!< receiver sampling period (cycles)
    std::uint64_t ts = 6000;      //!< sender per-bit period (cycles)
    Bits message;                 //!< bits to transmit
    std::uint32_t repeats = 1;
    bool infinite = false;        //!< sender loops forever; no decode

    std::uint32_t target_set = 7;   //!< carrier set of the channel
    std::uint32_t chase_set = 63;   //!< set of the receiver's chain
    bool shared_same_vaddr = true;  //!< false: separate address spaces
                                    //!< (AMD utag experiment)
    bool sender_locks_line = false; //!< PL-cache attack (Fig. 11)
    std::uint32_t encode_gap = 40;
    std::uint64_t max_samples = 0;  //!< 0: derived from bits, Ts and Tr
                                    //!< (or 300 when infinite)

    // ----- topology beyond the minimal one the mode implies.
    /** Run on the multi-core topology even without noise cores or
     *  cross-core parties (the SMT-pair-on-core-0 scenarios). */
    bool multicore = false;
    std::uint32_t noise_cores = 0;  //!< background cores beyond the
                                    //!< party core(s)
    exec::NoiseConfig noise{};      //!< per-noise-core knobs (seed varies)

    /**
     * When set, noise cores replay THIS trace (looping, staggered
     * per-core start offsets) instead of running the synthetic
     * NoiseProgram — the trace-replay front end's way of putting a
     * recorded victim workload beside the covert parties.  Shared so
     * N cores replay one loaded trace without copying it.
     */
    std::shared_ptr<const workload::TraceFile> noise_trace;

    /**
     * CrossCore only: > 0 layers OS time-slicing with this quantum on
     * *each party core* (TimeSlice nested under LowestClock).  For
     * SharingMode::TimeSliced the OS model is `tslice` itself.
     */
    std::uint64_t quantum = 0;
    exec::TimeSlicePolicyConfig tslice{};

    std::uint64_t seed = 1;

    /**
     * Throw std::invalid_argument, naming the field, for a config no
     * session can run meaningfully: tr = 0, ts = 0, an init depth d
     * beyond the carrier set's ways, spies > 1 outside the crosscore
     * mode and the xcore-lru-alg2 channel, or a noise_trace with no
     * records.
     * runSession calls it first.
     */
    void validate() const;
};

/** Everything a figure/table needs from one session. */
struct SessionResult
{
    std::vector<Sample> samples;   //!< receiver's raw trace (a
                                   //!< team's, merged in time order)
    Bits sent;                     //!< ground-truth transmitted bits
    Bits received;                 //!< decoded bits (empty if infinite)

    /**
     * Aligned decode view for leakage estimation (empty if infinite):
     * exactly one symbol from {0, 1, kErasureSymbol} per entry of
     * `sent`, so (sent[i], decoded_symbols[i]) are the channel's
     * empirical (input, output) pairs.
     */
    Bits decoded_symbols;
    double error_rate = 0.0;       //!< edit distance / sent length
    double kbps = 0.0;             //!< effective rate during the send
    std::uint64_t elapsed_cycles = 0;
    std::uint32_t threshold = 0;   //!< decode decision latency
    bool invert = false;           //!< decode polarity (1 = slow sample)
    std::uint64_t sender_start = 0;
    std::uint64_t back_invalidations = 0; //!< topology-wide (multi-core)
    std::uint32_t cores = 1;       //!< total cores simulated
    std::uint32_t spies = 1;       //!< receiver threads that ran

    // SHARP defender telemetry (all zero unless llc_secure == Sharp).
    std::uint64_t sharp_alarms = 0; //!< refusal events, all cores
    std::uint64_t sharp_forced = 0; //!< forced (all-foreign) evictions
    std::uint64_t sharp_denied = 0; //!< fills denied past the threshold
    /** Per-core alarm counts (index = core; attacker vs benign split). */
    std::vector<std::uint64_t> sharp_core_alarms;

    // Per-party cache behaviour (Tables IV-VII).  On the multi-core
    // topology the private levels are the party's own core's.
    sim::LevelStats sender_l1;
    sim::LevelStats sender_l2;
    sim::LevelStats sender_llc;
    sim::LevelStats receiver_l1;
    sim::LevelStats receiver_llc;

    // Engine telemetry of the two parties.
    exec::ThreadStats sender_stats;
    exec::ThreadStats receiver_stats;
};

/** The cache level that carries the channel state for this config. */
Carrier sessionCarrier(const SessionConfig &config);

/** Does this config need the multi-core topology? */
bool sessionMultiCore(const SessionConfig &config);

/** The carrier-geometry address plan the parties agree on. */
ChannelLayout sessionLayoutFor(const SessionConfig &config);

/** Run a full transmission and decode it. */
SessionResult runSession(const SessionConfig &config);

/**
 * Topologies runSession has constructed so far, over all threads.  A
 * session whose topology matches its thread's pooled one in everything
 * but the seeds reuses it and does not count.
 */
std::uint64_t topologyBuilds();

/**
 * Observation experiment (Figures 6, 8 and 15): the sender constantly
 * sends @p constant_bit (config.message/repeats are ignored); the
 * receiver takes max_samples measurements with period Tr; returns the
 * fraction of post-warm-up samples the receiver reads as 1.  It is
 * runSession on sendConstantly's config, scored by percentOnes.
 */
double sessionPercentOnes(SessionConfig config, std::uint8_t constant_bit);

/** Make @p config's sender send @p constant_bit forever. */
void sendConstantly(SessionConfig &config, std::uint8_t constant_bit);

/** Fraction of the post-warm-up samples of @p result read as 1. */
double percentOnes(const SessionResult &result);

} // namespace lruleak::channel

#endif // LRULEAK_CHANNEL_SESSION_HPP
