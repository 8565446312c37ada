/**
 * @file
 * Test-only reference copies of the three retired transmission
 * harnesses, together with the legacy configuration structs and their
 * SessionConfig translations.
 *
 * channel::Session replaced runCovertChannel / runXCoreChannel /
 * runSmtMulticore (and the ad-hoc sender/receiver-pair loops) with one
 * pipeline.
 * The deprecated production shims are gone; what lives on here is the
 * complete pre-refactor world, frozen for the differential suite:
 *
 *  - the legacy config/result structs (CovertConfig, XCoreConfig,
 *    SmtMultiCoreConfig, ...) exactly as they shipped;
 *  - the pre-Session harness bodies verbatim — independent hierarchy
 *    construction, engine wiring, calibration and decode;
 *  - the pure config translations (sessionConfigFor) the shims used,
 *    so tests/test_session_differential.cpp can drive channel::runSession
 *    with the very same randomized legacy configs and compare results
 *    field by field — the same pattern tests/legacy_schedulers.hpp uses
 *    for the engine.
 *
 * Do not "fix" or modernise this code: its value is being the
 * pre-Session behaviour, byte for byte.
 */

#ifndef LRULEAK_TESTS_LEGACY_CHANNEL_RUNNERS_HPP
#define LRULEAK_TESTS_LEGACY_CHANNEL_RUNNERS_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "channel/session.hpp"
#include "per_op_policy.hpp"
#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "timing/pointer_chase.hpp"

namespace lruleak::legacy {

using namespace lruleak::channel;

// ------------------------------------------------ legacy config structs

/** Full configuration of one covert-channel run (pre-Session). */
struct CovertConfig
{
    timing::Uarch uarch = timing::Uarch::intelXeonE52690();
    LruAlgorithm alg = LruAlgorithm::Alg1Shared;
    SharingMode mode = SharingMode::HyperThreaded;
    sim::ReplPolicyKind l1_policy = sim::ReplPolicyKind::TreePlru;
    sim::PlMode pl_mode = sim::PlMode::Disabled;

    std::uint32_t d = 8;          //!< receiver init-phase parameter
    std::uint64_t tr = 600;       //!< receiver sampling period (cycles)
    std::uint64_t ts = 6000;      //!< sender per-bit period (cycles)
    Bits message;                 //!< bits to transmit
    std::uint32_t repeats = 1;

    std::uint32_t target_set = 7;
    std::uint32_t chase_set = 63;
    bool shared_same_vaddr = true;  //!< false: separate address spaces
    bool sender_locks_line = false; //!< PL-cache attack (Fig. 11)
    std::uint32_t encode_gap = 40;
    std::uint64_t max_samples = 0;  //!< 0: derived from bits, Ts and Tr

    exec::TimeSlicePolicyConfig tslice{}; //!< TimeSliced-mode OS knobs
    std::uint64_t seed = 1;
};

/** Everything a figure/table needed from one run (pre-Session). */
struct CovertResult
{
    std::vector<Sample> samples;
    Bits sent;
    Bits received;
    double error_rate = 0.0;
    double kbps = 0.0;
    std::uint64_t elapsed_cycles = 0;
    std::uint32_t threshold = 0;
    std::uint64_t sender_start = 0;

    sim::LevelStats sender_l1;
    sim::LevelStats sender_l2;
    sim::LevelStats sender_llc;
    sim::LevelStats receiver_l1;
};

/** Full configuration of one cross-core channel run (pre-Session). */
struct XCoreConfig
{
    timing::Uarch uarch = timing::Uarch::intelXeonE52690();
    sim::ReplPolicyKind llc_policy = sim::ReplPolicyKind::TreePlru;
    std::uint32_t noise_cores = 0;

    std::uint32_t d = 12;           //!< receiver init depth (<= LLC ways)
    std::uint64_t tr = 3000;
    std::uint64_t ts = 30000;
    Bits message;
    std::uint32_t repeats = 1;

    std::uint32_t target_set = 7;
    std::uint32_t chase_set = 63;
    std::uint32_t encode_gap = 40;
    std::uint64_t max_samples = 0;

    exec::NoiseConfig noise{};
    exec::EngineConfig sched{};

    /** 0: parties own their cores; > 0: per-core OS time-slicing. */
    std::uint64_t quantum = 0;
    exec::TimeSlicePolicyConfig tslice{};
    std::uint64_t seed = 1;
};

/** Everything a figure/table needed from one cross-core run. */
struct XCoreResult
{
    std::vector<Sample> samples;
    Bits sent;
    Bits received;
    double error_rate = 0.0;
    double kbps = 0.0;
    std::uint64_t elapsed_cycles = 0;
    std::uint32_t threshold = 0;
    std::uint64_t sender_start = 0;
    std::uint64_t back_invalidations = 0;
    std::uint32_t cores = 2;

    sim::LevelStats sender_l1;
    sim::LevelStats sender_llc;
    sim::LevelStats receiver_llc;
};

/** SMT pair on core 0 of an N-core system (pre-Session). */
struct SmtMultiCoreConfig
{
    timing::Uarch uarch = timing::Uarch::intelXeonE52690();
    LruAlgorithm alg = LruAlgorithm::Alg1Shared;
    sim::ReplPolicyKind l1_policy = sim::ReplPolicyKind::TreePlru;
    std::uint32_t noise_cores = 2;

    std::uint32_t d = 8;
    std::uint64_t tr = 600;
    std::uint64_t ts = 6000;
    Bits message;
    std::uint32_t repeats = 1;

    std::uint32_t target_set = 7;
    std::uint32_t chase_set = 63;
    std::uint32_t encode_gap = 40;
    std::uint64_t max_samples = 0;

    exec::NoiseConfig noise{};
    exec::EngineConfig sched{};
    std::uint64_t seed = 1;
};

/** Everything the traces experiment needed from one combined run. */
struct SmtMultiCoreResult
{
    std::vector<Sample> samples;
    Bits sent;
    Bits received;
    double error_rate = 0.0;
    double kbps = 0.0;
    std::uint64_t elapsed_cycles = 0;
    std::uint32_t threshold = 0;
    std::uint64_t sender_start = 0;
    std::uint64_t back_invalidations = 0;
    std::uint32_t cores = 1;

    sim::LevelStats sender_l1;
    sim::LevelStats receiver_l1;
};

// --------------------------------------------- shim config translations

/** Derive the hierarchy configuration a CovertConfig implies. */
inline sim::HierarchyConfig
hierarchyFor(const CovertConfig &config)
{
    sim::HierarchyConfig h;
    h.l1 = sim::CacheConfig::intelL1d(config.l1_policy);
    h.l1.seed = config.seed;
    h.l1_way_predictor = config.uarch.way_predictor;
    h.l1_pl_mode = config.pl_mode;
    return h;
}

/** The SessionConfig the retired runCovertChannel shim built. */
inline SessionConfig
sessionConfigFor(const CovertConfig &config)
{
    SessionConfig s;
    s.channel = config.alg == LruAlgorithm::Alg1Shared
                    ? ChannelId::LruAlg1
                    : ChannelId::LruAlg2;
    s.mode = config.mode;
    s.uarch = config.uarch;
    s.l1_policy = config.l1_policy;
    s.pl_mode = config.pl_mode;
    s.d = config.d;
    s.tr = config.tr;
    s.ts = config.ts;
    s.message = config.message;
    s.repeats = config.repeats;
    s.target_set = config.target_set;
    s.chase_set = config.chase_set;
    s.shared_same_vaddr = config.shared_same_vaddr;
    s.sender_locks_line = config.sender_locks_line;
    s.encode_gap = config.encode_gap;
    s.max_samples = config.max_samples;
    s.tslice = config.tslice;
    s.seed = config.seed;
    return s;
}

/** The SessionConfig the retired runXCoreChannel shim built. */
inline SessionConfig
sessionConfigFor(const XCoreConfig &config)
{
    SessionConfig s;
    s.channel = ChannelId::XCoreLruAlg2;
    s.mode = SharingMode::CrossCore;
    s.uarch = config.uarch;
    s.llc_policy = config.llc_policy;
    s.noise_cores = config.noise_cores;
    s.d = config.d;
    s.tr = config.tr;
    s.ts = config.ts;
    s.message = config.message;
    s.repeats = config.repeats;
    s.target_set = config.target_set;
    s.chase_set = config.chase_set;
    s.encode_gap = config.encode_gap;
    s.max_samples = config.max_samples;
    s.noise = config.noise;
    s.quantum = config.quantum;
    s.tslice = config.tslice;
    s.sched = config.sched;
    s.seed = config.seed;
    return s;
}

/** The SessionConfig the retired runSmtMulticore shim built. */
inline SessionConfig
sessionConfigFor(const SmtMultiCoreConfig &config)
{
    SessionConfig s;
    s.channel = config.alg == LruAlgorithm::Alg1Shared
                    ? ChannelId::LruAlg1
                    : ChannelId::LruAlg2;
    s.mode = SharingMode::HyperThreaded;
    s.multicore = true; // core 0's private L1 carries the channel
    s.uarch = config.uarch;
    s.l1_policy = config.l1_policy;
    s.noise_cores = config.noise_cores;
    s.d = config.d;
    s.tr = config.tr;
    s.ts = config.ts;
    s.message = config.message;
    s.repeats = config.repeats;
    s.target_set = config.target_set;
    s.chase_set = config.chase_set;
    s.encode_gap = config.encode_gap;
    s.max_samples = config.max_samples;
    s.noise = config.noise;
    s.sched = config.sched;
    s.seed = config.seed;
    return s;
}

// ----------------------------------------------- single-core (covert)

namespace detail {

/** Shared setup for both single-core runners. */
struct RunContext
{
    sim::CacheHierarchy hierarchy;
    ChannelLayout layout;
    LruSender sender;
    LruReceiver receiver;

    RunContext(const CovertConfig &config, const SenderConfig &sc,
               const ReceiverConfig &rc)
        : hierarchy(hierarchyFor(config)),
          layout(sim::CacheConfig::intelL1d(config.l1_policy),
                 config.target_set, config.chase_set,
                 config.shared_same_vaddr),
          sender(layout, sc), receiver(layout, rc)
    {}
};

constexpr std::uint64_t kTimeSlicedMaxCycles = 4'000'000'000'000ULL;

inline std::uint64_t
runScheduler(const CovertConfig &config, RunContext &ctx)
{
    exec::EngineConfig ec;
    ec.seed = config.seed;
    if (config.mode == SharingMode::HyperThreaded) {
        // One op per step (the retired RoundRobinSmt's schedule), so
        // the session differential does not lean on the run-ahead.
        reference::PerOpLowestClock policy;
        exec::Engine engine(ctx.hierarchy, config.uarch, policy, ec);
        return engine.run(ctx.sender, ctx.receiver, /*primary=*/1);
    }
    ec.max_cycles = kTimeSlicedMaxCycles;
    exec::TimeSlice policy(config.tslice);
    exec::Engine engine(ctx.hierarchy, config.uarch, policy, ec);
    return engine.run(ctx.sender, ctx.receiver, /*primary=*/1);
}

/**
 * Build one NoiseProgram per noise core, with per-core seed and
 * footprint base so the cores never run in lockstep.
 */
inline std::vector<std::unique_ptr<exec::NoiseProgram>>
makeNoisePrograms(const exec::NoiseConfig &base_config,
                  std::uint32_t noise_cores, std::uint64_t seed)
{
    std::vector<std::unique_ptr<exec::NoiseProgram>> noise;
    noise.reserve(noise_cores);
    for (std::uint32_t i = 0; i < noise_cores; ++i) {
        exec::NoiseConfig nc = base_config;
        nc.seed = seed + 0x6e01'0000ULL + i;
        nc.base = base_config.base + i * 0x0100'0000'0000ULL;
        noise.push_back(std::make_unique<exec::NoiseProgram>(nc));
    }
    return noise;
}

inline exec::TimeSlicePolicyConfig
partyCoreTimeSlice(const XCoreConfig &config, std::uint32_t core)
{
    exec::TimeSlicePolicyConfig tc = config.tslice;
    tc.quantum = config.quantum;
    tc.kernel_thread = 1000 + 2 * core;
    tc.background_thread = 1001 + 2 * core;
    tc.background_base += core * 0x0100'0000'0000ULL;
    return tc;
}

} // namespace detail

inline CovertResult
legacyRunCovertChannel(const CovertConfig &config)
{
    const std::size_t nbits = config.message.size() * config.repeats;

    SenderConfig sc;
    sc.alg = config.alg;
    sc.message = config.message;
    sc.repeats = config.repeats;
    sc.ts = config.ts;
    sc.encode_gap = config.encode_gap;
    sc.lock_line = config.sender_locks_line;

    ReceiverConfig rc;
    rc.alg = config.alg;
    rc.d = config.d;
    rc.tr = config.tr;
    rc.max_samples = config.max_samples
        ? config.max_samples
        : (nbits * config.ts) / std::max<std::uint64_t>(config.tr, 1) + 8;

    detail::RunContext ctx(config, sc, rc);
    const std::uint64_t end = detail::runScheduler(config, ctx);

    const timing::MeasurementModel model(config.uarch);

    CovertResult res;
    res.samples = ctx.receiver.samples();
    res.sent = ctx.sender.sentBits();
    res.threshold = model.chaseThreshold();
    res.sender_start = ctx.sender.startTsc();

    const bool invert = config.alg == LruAlgorithm::Alg2Disjoint;
    res.received = windowDecode(res.samples, res.threshold, invert,
                                res.sender_start, config.ts, nbits);
    res.error_rate = editErrorRate(res.sent, res.received);

    res.elapsed_cycles = end > res.sender_start ? end - res.sender_start
                                                : 0;
    res.kbps = config.uarch.kbps(nbits, res.elapsed_cycles);

    const auto &h = ctx.hierarchy;
    res.sender_l1 = h.l1().counters().forThread(kSenderThread);
    res.sender_l2 = h.l2().counters().forThread(kSenderThread);
    res.sender_llc = h.llc().counters().forThread(kSenderThread);
    res.receiver_l1 = h.l1().counters().forThread(kReceiverThread);
    return res;
}

inline double
legacyRunPercentOnes(const CovertConfig &config, std::uint8_t constant_bit)
{
    SenderConfig sc;
    sc.alg = config.alg;
    sc.message = Bits{constant_bit};
    sc.infinite = true;
    sc.ts = config.ts;
    sc.encode_gap = config.encode_gap;

    ReceiverConfig rc;
    rc.alg = config.alg;
    rc.d = config.d;
    rc.tr = config.tr;
    rc.max_samples = config.max_samples ? config.max_samples : 300;

    detail::RunContext ctx(config, sc, rc);
    detail::runScheduler(config, ctx);

    const timing::MeasurementModel model(config.uarch);
    const bool invert = config.alg == LruAlgorithm::Alg2Disjoint;
    const Bits bits = thresholdSamples(ctx.receiver.samples(),
                                       model.chaseThreshold(), invert);
    const std::size_t skip = std::min<std::size_t>(bits.size(), 4);
    Bits tail(bits.begin() + static_cast<std::ptrdiff_t>(skip), bits.end());
    return fractionOnes(tail);
}

// -------------------------------------------------------- cross-core

inline XCoreResult
legacyRunXCoreChannel(const XCoreConfig &config)
{
    const std::size_t nbits = config.message.size() * config.repeats;

    SenderConfig sc;
    sc.alg = LruAlgorithm::Alg2Disjoint;
    sc.message = config.message;
    sc.repeats = config.repeats;
    sc.ts = config.ts;
    sc.encode_gap = config.encode_gap;

    ReceiverConfig rc;
    rc.alg = LruAlgorithm::Alg2Disjoint;
    rc.d = config.d;
    rc.tr = config.tr;
    rc.max_samples = config.max_samples
        ? config.max_samples
        : (nbits * config.ts) / std::max<std::uint64_t>(config.tr, 1) + 8;

    sim::MultiCoreConfig mc;
    mc.cores = 2 + config.noise_cores;
    mc.llc.policy = config.llc_policy;
    mc.seed = config.seed;
    sim::MultiCoreHierarchy hierarchy(mc);

    sim::CacheConfig llc = sim::CacheConfig::intelLlc();
    llc.policy = config.llc_policy;
    const ChannelLayout layout(llc, config.target_set, config.chase_set,
                               /*shared_same_vaddr=*/true);
    LruSender sender(layout, sc);
    LruReceiver receiver(layout, rc);

    const auto noise = detail::makeNoisePrograms(
        config.noise, config.noise_cores, config.seed);
    std::vector<exec::ThreadSpec> specs{{&sender, 0}, {&receiver, 1}};
    for (std::uint32_t i = 0; i < config.noise_cores; ++i)
        specs.push_back(exec::ThreadSpec{noise[i].get(), 2 + i});

    exec::LowestClock policy;
    if (config.quantum > 0) {
        policy.nest(0, std::make_unique<exec::TimeSlice>(
                           detail::partyCoreTimeSlice(config, 0)));
        policy.nest(1, std::make_unique<exec::TimeSlice>(
                           detail::partyCoreTimeSlice(config, 1)));
    }

    exec::EngineConfig ec = config.sched;
    ec.seed = config.seed;
    exec::Engine engine(hierarchy, config.uarch, policy, ec);
    const std::uint64_t end = engine.run(specs, /*primary=*/1);

    const timing::MeasurementModel model(config.uarch);

    XCoreResult res;
    res.samples = receiver.samples();
    res.sent = sender.sentBits();
    res.threshold = model.chaseThresholdBetween(sim::HitLevel::LLC,
                                                sim::HitLevel::Memory);
    res.sender_start = sender.startTsc();
    res.cores = hierarchy.cores();

    res.received = windowDecode(res.samples, res.threshold,
                                /*invert=*/true, res.sender_start,
                                config.ts, nbits);
    res.error_rate = editErrorRate(res.sent, res.received);

    res.elapsed_cycles = end > res.sender_start ? end - res.sender_start
                                                : 0;
    res.kbps = config.uarch.kbps(nbits, res.elapsed_cycles);
    res.back_invalidations = hierarchy.backInvalidations();

    res.sender_l1 = hierarchy.l1(0).counters().forThread(kSenderThread);
    res.sender_llc = hierarchy.llc().counters().forThread(kSenderThread);
    res.receiver_llc =
        hierarchy.llc().counters().forThread(kReceiverThread);
    return res;
}

// --------------------------------------- SMT pair on a multi-core system

inline SmtMultiCoreResult
legacyRunSmtMulticore(const SmtMultiCoreConfig &config)
{
    const std::size_t nbits = config.message.size() * config.repeats;

    SenderConfig sc;
    sc.alg = config.alg;
    sc.message = config.message;
    sc.repeats = config.repeats;
    sc.ts = config.ts;
    sc.encode_gap = config.encode_gap;

    ReceiverConfig rc;
    rc.alg = config.alg;
    rc.d = config.d;
    rc.tr = config.tr;
    rc.max_samples = config.max_samples
        ? config.max_samples
        : (nbits * config.ts) / std::max<std::uint64_t>(config.tr, 1) + 8;

    sim::MultiCoreConfig mc;
    mc.cores = 1 + config.noise_cores;
    mc.l1 = sim::CacheConfig::intelL1d(config.l1_policy);
    mc.seed = config.seed;
    sim::MultiCoreHierarchy hierarchy(mc);

    const ChannelLayout layout(sim::CacheConfig::intelL1d(config.l1_policy),
                               config.target_set, config.chase_set,
                               /*shared_same_vaddr=*/true);
    LruSender sender(layout, sc);
    LruReceiver receiver(layout, rc);

    const auto noise = detail::makeNoisePrograms(
        config.noise, config.noise_cores, config.seed);
    std::vector<exec::ThreadSpec> specs{{&sender, 0}, {&receiver, 0}};
    for (std::uint32_t i = 0; i < config.noise_cores; ++i)
        specs.push_back(exec::ThreadSpec{noise[i].get(), 1 + i});

    exec::LowestClock policy;
    policy.nest(0, std::make_unique<reference::PerOpLowestClock>());

    exec::EngineConfig ec = config.sched;
    ec.seed = config.seed;
    exec::Engine engine(hierarchy, config.uarch, policy, ec);
    const std::uint64_t end = engine.run(specs, /*primary=*/1);

    const timing::MeasurementModel model(config.uarch);

    SmtMultiCoreResult res;
    res.samples = receiver.samples();
    res.sent = sender.sentBits();
    res.threshold = model.chaseThreshold();
    res.sender_start = sender.startTsc();
    res.cores = hierarchy.cores();

    const bool invert = config.alg == LruAlgorithm::Alg2Disjoint;
    res.received = windowDecode(res.samples, res.threshold, invert,
                                res.sender_start, config.ts, nbits);
    res.error_rate = editErrorRate(res.sent, res.received);

    res.elapsed_cycles = end > res.sender_start ? end - res.sender_start
                                                : 0;
    res.kbps = config.uarch.kbps(nbits, res.elapsed_cycles);
    res.back_invalidations = hierarchy.backInvalidations();

    res.sender_l1 = hierarchy.l1(0).counters().forThread(kSenderThread);
    res.receiver_l1 =
        hierarchy.l1(0).counters().forThread(kReceiverThread);
    return res;
}

} // namespace lruleak::legacy

#endif // LRULEAK_TESTS_LEGACY_CHANNEL_RUNNERS_HPP
