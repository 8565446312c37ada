/**
 * @file
 * The unified channel-session pipeline.
 */

#include "channel/session.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/dirty_channel.hpp"
#include "channel/flush_reload.hpp"
#include "channel/multi_spy.hpp"
#include "channel/prime_probe.hpp"
#include "exec/trace_program.hpp"

namespace lruleak::channel {

std::string_view
sharingModeToken(SharingMode mode)
{
    switch (mode) {
      case SharingMode::HyperThreaded: return "hyperthreaded";
      case SharingMode::TimeSliced:    return "timesliced";
      case SharingMode::CrossCore:     return "crosscore";
    }
    return "unknown";
}

const std::vector<SharingMode> &
allSharingModes()
{
    static const std::vector<SharingMode> modes{
        SharingMode::HyperThreaded, SharingMode::TimeSliced,
        SharingMode::CrossCore};
    return modes;
}

Carrier
sessionCarrier(const SessionConfig &config)
{
    // Cross-core parties can only meet in the shared LLC; the x-core
    // channel speaks LLC geometry natively in every mode.
    if (config.mode == SharingMode::CrossCore ||
        channelCaps(config.channel).llc_geometry)
        return Carrier::Llc;
    return Carrier::L1;
}

bool
sessionMultiCore(const SessionConfig &config)
{
    return config.mode == SharingMode::CrossCore ||
           config.noise_cores > 0 || config.multicore;
}

ChannelLayout
sessionLayoutFor(const SessionConfig &config)
{
    if (sessionCarrier(config) == Carrier::Llc) {
        // LLC geometry: lines 0..N-1 share one LLC set *and*, because
        // LLC-set bits contain the private-cache set bits, one private
        // set per core too.
        sim::CacheConfig llc = sim::CacheConfig::intelLlc();
        if (config.llc_policy)
            llc.policy = *config.llc_policy;
        return ChannelLayout(llc, config.target_set, config.chase_set,
                             config.shared_same_vaddr);
    }
    return ChannelLayout(sim::CacheConfig::intelL1d(config.l1_policy),
                         config.target_set, config.chase_set,
                         config.shared_same_vaddr);
}

namespace {

/** Time-sliced runs outlive the SMT safety stop by orders of magnitude
 *  (quanta are ~1e8 cycles); keep the seed schedulers' respective caps. */
constexpr std::uint64_t kTimeSlicedMaxCycles = 4'000'000'000'000ULL;

/**
 * Build one background program per noise core.  Default: a
 * NoiseProgram with per-core seed and footprint base so the cores
 * never run in lockstep.  With SessionConfig::noise_trace set: a
 * looping TraceProgram per core, start offsets staggered across the
 * trace so N cores approximate N concurrent phases of the recorded
 * victim.
 */
std::vector<std::unique_ptr<exec::ThreadProgram>>
makeNoisePrograms(const SessionConfig &config)
{
    std::vector<std::unique_ptr<exec::ThreadProgram>> noise;
    noise.reserve(config.noise_cores);
    for (std::uint32_t i = 0; i < config.noise_cores; ++i) {
        if (config.noise_trace) {
            const std::size_t stagger =
                i * (config.noise_trace->size() / config.noise_cores);
            noise.push_back(std::make_unique<exec::TraceProgram>(
                config.noise_trace, stagger, /*loop=*/true));
            continue;
        }
        exec::NoiseConfig nc = config.noise;
        nc.seed = config.seed + 0x6e01'0000ULL + i;
        nc.base = config.noise.base + i * 0x0100'0000'0000ULL;
        noise.push_back(std::make_unique<exec::NoiseProgram>(nc));
    }
    return noise;
}

/**
 * Per-party-core OS model for the time-sliced cross-core scenario:
 * same quantum on both cores, distinct kernel/background thread ids
 * and background footprints (the kernel working set is shared — it is
 * the same kernel).
 */
exec::TimeSlicePolicyConfig
partyCoreTimeSlice(const SessionConfig &config, std::uint32_t core)
{
    exec::TimeSlicePolicyConfig tc = config.tslice;
    tc.quantum = config.quantum;
    tc.kernel_thread = 1000 + 2 * core;
    tc.background_thread = 1001 + 2 * core;
    tc.background_base += core * 0x0100'0000'0000ULL;
    return tc;
}

/** Topologies built by the pools below, over all threads. */
std::atomic<std::uint64_t> g_topology_builds{0};

/**
 * Topology reuse pool.  Building a topology is the dominant cost of a
 * short session (the LLC alone is 2,048 sets of 16 ways), while
 * reset(seed) — verified by test_session_fastpath and test_hierarchy —
 * returns a used topology to exactly the state a fresh construction
 * under the new seeds would have.  So each thread keeps its last topology and
 * reuses it whenever the next session's config matches it in
 * everything but the seeds (sameTopology): every repeated-session
 * workload, including seed-per-cell sweeps.  On a miss the old
 * topology is released before the new one is built, so a thread never
 * holds two.
 */
sim::CacheHierarchy &
pooledHierarchy(const sim::HierarchyConfig &config)
{
    static thread_local std::unique_ptr<sim::CacheHierarchy> pool;
    if (pool && sim::sameTopology(pool->config(), config)) {
        pool->reset(config);
        return *pool;
    }
    pool.reset();
    pool = std::make_unique<sim::CacheHierarchy>(config);
    g_topology_builds.fetch_add(1, std::memory_order_relaxed);
    return *pool;
}

sim::MultiCoreHierarchy &
pooledMultiCore(const sim::MultiCoreConfig &config)
{
    static thread_local std::unique_ptr<sim::MultiCoreHierarchy> pool;
    if (pool && sim::sameTopology(pool->config(), config)) {
        pool->reset(config.seed);
        return *pool;
    }
    pool.reset();
    pool = std::make_unique<sim::MultiCoreHierarchy>(config);
    g_topology_builds.fetch_add(1, std::memory_order_relaxed);
    return *pool;
}

/**
 * The receiving side of a session: the channel's own receiver, or the
 * K spies of a multi-spy team (spies > 1), all on one sampling clock.
 */
std::vector<std::unique_ptr<Receiver>>
makeReceivers(const SessionConfig &config, const ChannelLayout &layout,
              std::uint64_t max_samples)
{
    const SamplingConfig clock{config.tr, max_samples};
    std::vector<std::unique_ptr<Receiver>> receivers;
    if (config.spies > 1) {
        const MultiSpyConfig team{
            clock, config.spies,
            /*pin_slices=*/config.llc_secure == sim::SecureMode::Sharp};
        for (std::uint32_t j = 0; j < config.spies; ++j)
            receivers.push_back(
                std::make_unique<SpyReceiver>(layout, team, j));
        return receivers;
    }

    switch (config.channel) {
      case ChannelId::FrMem:
      case ChannelId::FrL1:
        receivers.push_back(std::make_unique<FrReceiver>(
            layout, FrReceiverConfig{clock, config.channel == ChannelId::FrMem
                                                ? FlushKind::ToMemory
                                                : FlushKind::FromL1}));
        break;
      case ChannelId::LruAlg1:
      case ChannelId::LruAlg2:
      case ChannelId::XCoreLruAlg2:
        // XCoreLruAlg2 is Algorithm 2 run over whatever geometry the
        // layout describes — natively the shared LLC's (16 ways, so a
        // deeper default init), but any carrier works: the programs
        // only ever speak in layout lines.
        receivers.push_back(std::make_unique<LruReceiver>(
            layout,
            ReceiverConfig{clock, senderAlgorithmFor(config.channel),
                           config.d ? config.d
                                    : defaultInitDepth(config.channel,
                                                       layout.ways())}));
        break;
      case ChannelId::PrimeProbe:
        receivers.push_back(std::make_unique<PpReceiver>(layout, clock));
        break;
      case ChannelId::DirtyEvict:
        receivers.push_back(
            std::make_unique<DirtyEvictReceiver>(layout, clock));
        break;
      case ChannelId::FlushDirty:
        receivers.push_back(
            std::make_unique<FlushDirtyReceiver>(layout, clock));
        break;
    }
    return receivers;
}

/**
 * The session's raw trace: the one receiver's samples as recorded, or
 * all spies' samples in time order (stable, so equal timestamps keep
 * team order and the merge is deterministic for any spy count).
 */
std::vector<Sample>
sessionSamples(const std::vector<std::unique_ptr<Receiver>> &receivers)
{
    if (receivers.size() == 1)
        return receivers.front()->samples();
    std::vector<Sample> merged;
    std::size_t total = 0;
    for (const auto &receiver : receivers)
        total += receiver->samples().size();
    merged.reserve(total);
    for (const auto &receiver : receivers)
        merged.insert(merged.end(), receiver->samples().begin(),
                      receiver->samples().end());
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Sample &a, const Sample &b) {
                         return a.tsc < b.tsc;
                     });
    return merged;
}

/** End-of-run values that must outlive the engine. */
struct RunOutcome
{
    std::uint64_t end = 0;
    exec::ThreadStats sender_stats;
    exec::ThreadStats receiver_stats;
};

RunOutcome
finish(exec::Engine &engine, std::span<const exec::ThreadSpec> specs)
{
    RunOutcome out;
    out.end = engine.run(specs, /*primary=*/1);
    out.sender_stats = engine.stats(0);
    out.receiver_stats = engine.stats(1);
    return out;
}

/** Single-core stage: CacheHierarchy under LowestClock (the hyperthread
 *  pair as two bare threads of core 0) or TimeSlice. */
RunOutcome
runSingleCore(const SessionConfig &config, LruSender &sender,
              Receiver &receiver, sim::CacheHierarchy &hierarchy)
{
    const std::vector<exec::ThreadSpec> specs{{&sender, 0}, {&receiver, 0}};
    exec::EngineConfig ec;
    ec.seed = config.seed;
    if (config.mode == SharingMode::HyperThreaded) {
        exec::LowestClock policy;
        exec::Engine engine(hierarchy, config.uarch, policy, ec);
        return finish(engine, specs);
    }
    ec.max_cycles = kTimeSlicedMaxCycles;
    exec::TimeSlice policy(config.tslice);
    exec::Engine engine(hierarchy, config.uarch, policy, ec);
    return finish(engine, specs);
}

/**
 * Multi-core stage: MultiCoreHierarchy under LowestClock, with
 * TimeSlice nested on the party core(s) when the mode time-slices
 * them, and noise programs pinned to the remaining cores.  The
 * hyperthread pair needs no nest: it is two bare threads of core 0.
 * Cross-core receiver j runs on core 1 + j.
 */
RunOutcome
runMultiCore(const SessionConfig &config, LruSender &sender,
             const std::vector<std::unique_ptr<Receiver>> &receivers,
             sim::MultiCoreHierarchy &hierarchy)
{
    const bool xcore = config.mode == SharingMode::CrossCore;
    const std::uint32_t nrecv =
        static_cast<std::uint32_t>(receivers.size());
    const std::uint32_t first_noise_core = xcore ? 1 + nrecv : 1;

    const auto noise = makeNoisePrograms(config);
    std::vector<exec::ThreadSpec> specs{{&sender, 0}};
    for (std::uint32_t j = 0; j < nrecv; ++j)
        specs.push_back(
            exec::ThreadSpec{receivers[j].get(), xcore ? 1 + j : 0});
    for (std::uint32_t i = 0; i < config.noise_cores; ++i)
        specs.push_back(exec::ThreadSpec{noise[i].get(),
                                         first_noise_core + i});

    exec::LowestClock policy;
    exec::EngineConfig ec;
    ec.seed = config.seed;
    switch (config.mode) {
      case SharingMode::CrossCore:
        if (config.quantum > 0) {
            // Layer OS time-slicing on the party cores: TimeSlice nests
            // under the cross-core LowestClock arbitration.  Noise
            // cores stay dedicated (pinned background processes).
            for (std::uint32_t core = 0; core <= nrecv; ++core)
                policy.nest(core, std::make_unique<exec::TimeSlice>(
                                      partyCoreTimeSlice(config, core)));
        }
        break;
      case SharingMode::HyperThreaded:
        // The hyperthread pair: two bare threads of core 0.
        break;
      case SharingMode::TimeSliced:
        policy.nest(0, std::make_unique<exec::TimeSlice>(config.tslice));
        ec.max_cycles = kTimeSlicedMaxCycles;
        break;
    }

    exec::Engine engine(hierarchy, config.uarch, policy, ec);
    return finish(engine, specs);
}

} // namespace

void
SessionConfig::validate() const
{
    if (tr == 0)
        throw std::invalid_argument(
            "SessionConfig::tr: the sampling period must be at least "
            "one cycle");
    if (ts == 0)
        throw std::invalid_argument(
            "SessionConfig::ts: the bit period must be at least one "
            "cycle");
    const std::uint32_t ways = sessionLayoutFor(*this).ways();
    if (d > ways)
        throw std::invalid_argument(
            "SessionConfig::d: init depth " + std::to_string(d) +
            " exceeds the " + std::to_string(ways) +
            " ways of the carrier set");
    if (spies > 1 && (mode != SharingMode::CrossCore ||
                      channel != ChannelId::XCoreLruAlg2))
        throw std::invalid_argument(
            "SessionConfig::spies: multi-spy sessions (spies > 1) "
            "require the crosscore sharing mode and the xcore-lru-alg2 "
            "channel");
    if (noise_trace && noise_trace->empty())
        throw std::invalid_argument(
            "SessionConfig::noise_trace: the trace the noise cores "
            "replay has no records");
}

SessionResult
runSession(const SessionConfig &config)
{
    config.validate();
    const std::size_t nbits = config.message.size() * config.repeats;
    const bool multi = sessionMultiCore(config);
    const std::uint32_t spy_count =
        std::max<std::uint32_t>(config.spies, 1);

    // ----- stage 1: sender and receiver(s) over the carrier-geometry
    // layout.
    const ChannelLayout layout = sessionLayoutFor(config);

    SenderConfig sc;
    sc.alg = senderAlgorithmFor(config.channel);
    sc.message = config.message;
    sc.repeats = config.repeats;
    sc.ts = config.ts;
    sc.encode_gap = config.encode_gap;
    sc.infinite = config.infinite;
    sc.lock_line = config.sender_locks_line;
    sc.write_polarity = channelCaps(config.channel).dirty_state;
    if (config.channel == ChannelId::DirtyEvict) {
        // A line the sender keeps re-touching is MRU/PLRU-protected and
        // the receiver's eviction walk can never victimise it.  Pace the
        // re-dirtying at the receiver's sampling period instead: one
        // touch per sample, re-arming the line right after the previous
        // walk drained it.  (Flush-dirty needs no pacing — clflush
        // removes the line regardless of replacement state.)
        sc.encode_gap = std::max(sc.encode_gap,
                                 static_cast<std::uint32_t>(config.tr));
    }
    // Against SHARP a spy team runs the pin-slices protocol and the
    // cooperating sender waives its own line's ownership (see
    // channel/multi_spy.hpp).
    sc.kick_private =
        spy_count > 1 && config.llc_secure == sim::SecureMode::Sharp;
    // On the heap, like the receivers: a sender in this stack frame
    // measured slower on the time-sliced sessions of fig6_timesliced.
    const auto sender = std::make_unique<LruSender>(layout, sc);

    // Sample slightly past the end of the message so the last bit gets
    // its full window even with scheduling skew.
    const std::uint64_t max_samples = config.max_samples
        ? config.max_samples
        : (config.infinite
               ? 300
               : (nbits * config.ts) / config.tr + 8);
    const auto receivers = makeReceivers(config, layout, max_samples);

    // ----- stage 2: topology + arbitration policy, then the run.
    SessionResult res;
    RunOutcome run;
    const auto applyWritePolicy = [&](sim::CacheConfig &cc) {
        cc.write_hit = config.write_hit;
        cc.write_miss = config.write_miss;
    };
    if (multi) {
        sim::MultiCoreConfig mc;
        mc.cores =
            (config.mode == SharingMode::CrossCore ? 1u + spy_count : 1u) +
            config.noise_cores;
        mc.l1 = sim::CacheConfig::intelL1d(config.l1_policy);
        mc.l1.secure = config.l1_secure;
        if (config.llc_policy)
            mc.llc.policy = *config.llc_policy;
        mc.llc.secure = config.llc_secure;
        mc.llc.sharp_alarm_threshold = config.llc_alarm_threshold;
        mc.seed = config.seed;
        applyWritePolicy(mc.l1);
        applyWritePolicy(mc.l2);
        applyWritePolicy(mc.llc);
        sim::MultiCoreHierarchy &hierarchy = pooledMultiCore(mc);

        run = runMultiCore(config, *sender, receivers, hierarchy);

        const std::uint32_t rcore =
            config.mode == SharingMode::CrossCore ? 1 : 0;
        res.cores = hierarchy.cores();
        res.back_invalidations = hierarchy.backInvalidations();
        res.sender_l1 = hierarchy.l1(0).counters().forThread(kSenderThread);
        res.sender_l2 = hierarchy.l2(0).counters().forThread(kSenderThread);
        res.sender_llc = hierarchy.llc().counters().forThread(kSenderThread);
        res.receiver_l1 =
            hierarchy.l1(rcore).counters().forThread(kReceiverThread);
        res.receiver_llc =
            hierarchy.llc().counters().forThread(kReceiverThread);
        if (config.llc_secure == sim::SecureMode::Sharp) {
            const sim::Cache &llc = hierarchy.llc();
            res.sharp_alarms = llc.sharpAlarmsTotal();
            res.sharp_forced = llc.sharpForcedTotal();
            res.sharp_denied = llc.sharpDeniedTotal();
            res.sharp_core_alarms.resize(hierarchy.cores());
            for (std::uint32_t c = 0; c < hierarchy.cores(); ++c)
                res.sharp_core_alarms[c] = llc.sharpAlarms(c);
        }
    } else {
        sim::HierarchyConfig h;
        h.l1 = sim::CacheConfig::intelL1d(config.l1_policy);
        h.l1.seed = config.seed;
        h.l1.secure = config.l1_secure;
        if (config.llc_policy)
            h.llc.policy = *config.llc_policy;
        h.l1_way_predictor = config.uarch.way_predictor;
        h.l1_pl_mode = config.pl_mode;
        applyWritePolicy(h.l1);
        applyWritePolicy(h.l2);
        applyWritePolicy(h.llc);
        sim::CacheHierarchy &hierarchy = pooledHierarchy(h);

        // A team needs the cross-core topology, so here there is
        // exactly one receiver.
        run = runSingleCore(config, *sender, *receivers.front(), hierarchy);

        res.sender_l1 = hierarchy.l1().counters().forThread(kSenderThread);
        res.sender_l2 = hierarchy.l2().counters().forThread(kSenderThread);
        res.sender_llc = hierarchy.llc().counters().forThread(kSenderThread);
        res.receiver_l1 =
            hierarchy.l1().counters().forThread(kReceiverThread);
        res.receiver_llc =
            hierarchy.llc().counters().forThread(kReceiverThread);
    }
    res.sender_stats = run.sender_stats;
    res.receiver_stats = run.receiver_stats;

    // ----- stage 3: calibrate, decode, score.
    const Calibration cal =
        calibrationFor(config.uarch, config.channel,
                       sessionCarrier(config), layout.ways());
    res.threshold = cal.threshold;
    res.invert = cal.invert;

    res.spies = spy_count;
    res.samples = sessionSamples(receivers);
    res.sent = sender->sentBits();
    res.sender_start = sender->startTsc();
    if (!config.infinite) {
        // Each receiver's trace is windowed against the same sender bit
        // clock; a team's rows then merge any-spy-wins, so the symbol
        // row stays aligned 1:1 with the sent bits.
        std::vector<Bits> rows;
        rows.reserve(receivers.size());
        for (const auto &receiver : receivers)
            rows.push_back(windowSymbols(receiver->samples(), res.threshold,
                                         res.invert, res.sender_start,
                                         config.ts, nbits));
        res.decoded_symbols = rows.size() == 1 ? std::move(rows.front())
                                               : mergeSpySymbols(rows);
        res.received = res.decoded_symbols;
        std::erase(res.received, kErasureSymbol);
        res.error_rate = editErrorRate(res.sent, res.received);
    }

    res.elapsed_cycles =
        run.end > res.sender_start ? run.end - res.sender_start : 0;
    res.kbps = config.uarch.kbps(nbits, res.elapsed_cycles);
    return res;
}

std::uint64_t
topologyBuilds()
{
    return g_topology_builds.load(std::memory_order_relaxed);
}

double
sessionPercentOnes(SessionConfig config, std::uint8_t constant_bit)
{
    sendConstantly(config, constant_bit);
    return percentOnes(runSession(config));
}

void
sendConstantly(SessionConfig &config, std::uint8_t constant_bit)
{
    config.message = Bits{constant_bit};
    config.repeats = 1;
    config.infinite = true;
}

double
percentOnes(const SessionResult &r)
{
    const Bits bits = thresholdSamples(r.samples, r.threshold, r.invert);
    // Skip the first few warm-up observations.
    const std::size_t skip = std::min<std::size_t>(bits.size(), 4);
    Bits tail(bits.begin() + static_cast<std::ptrdiff_t>(skip), bits.end());
    return fractionOnes(tail);
}

} // namespace lruleak::channel
