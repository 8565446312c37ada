/**
 * @file
 * Experiment runner implementations.
 */

#include "core/experiments.hpp"

#include <algorithm>

#include "channel/flush_reload.hpp"
#include "core/trial_runner.hpp"
#include "exec/engine.hpp"
#include "sim/cache_set.hpp"
#include "timing/pointer_chase.hpp"

namespace lruleak::core {

using channel::ChannelId;

// ------------------------------------------------------------- Table I

namespace {

constexpr std::uint64_t kLineX = 100; //!< the paper's "line x"

/**
 * Materialise one pass of the paper's Sequence 2 into @p tags:
 * 0 (x) 1 (x) ... 7, inserting line x with the configured probability.
 * The paper "assume[s] line x will be accessed at least once", so the
 * last insertion point fires unconditionally if no earlier one did.
 */
void
appendSeq2(std::vector<sim::Addr> &tags, sim::Xoshiro256 &rng,
           const EvictionStudyConfig &config)
{
    bool x_accessed = false;
    for (std::uint32_t line = 0; line < config.ways; ++line) {
        tags.push_back(line);
        if (line + 1 < config.ways) {
            const bool last_gap = line + 2 == config.ways;
            if (rng.chance(config.x_probability) ||
                (last_gap && !x_accessed)) {
                tags.push_back(kLineX);
                x_accessed = true;
            }
        }
    }
}

} // namespace

std::vector<double>
evictionProbabilities(sim::ReplPolicyKind policy, InitCondition init,
                      AccessSequence seq, const EvictionStudyConfig &config)
{
    // One trial = one value-semantic CacheSet; every access sequence is
    // materialised and replayed through the batch API.  Trials fan out
    // over core::runTrials with per-trial RNG streams, so the result is
    // identical for any worker count.
    const auto trial_fn = [&](std::uint32_t trial, sim::Xoshiro256 &rng) {
        sim::CacheSet set(
            config.ways,
            sim::ReplState::make(policy, config.ways,
                                 config.seed + trial));
        std::vector<sim::Addr> tags;
        tags.reserve(4 * config.ways);

        // ----- Warm-up: establish the initial condition.
        if (init == InitCondition::Random) {
            // Lines 0..7 and a few others in random order.
            for (std::uint32_t i = 0; i < 4 * config.ways; ++i) {
                const std::uint64_t t = rng.below(config.ways + 3);
                tags.push_back(t < config.ways ? t : kLineX + t);
            }
        } else {
            // "Previous access to the set is accessed in order with
            // random insertion like Sequence 2": two passes leave the
            // set in Sequence 2's steady regime.
            appendSeq2(tags, rng, config);
            appendSeq2(tags, rng, config);
        }
        set.replayBatch(tags);

        // ----- Measured loop.
        std::vector<std::uint8_t> evicted(config.loop_iterations, 0);
        for (std::uint32_t iter = 0; iter < config.loop_iterations;
             ++iter) {
            tags.clear();
            if (seq == AccessSequence::Seq1) {
                for (std::uint32_t line = 0; line <= config.ways; ++line)
                    tags.push_back(line); // 0..7 then line 8
            } else {
                appendSeq2(tags, rng, config);
            }
            set.replayBatch(tags);
            evicted[iter] = set.probe(0) != sim::kNoWay ? 0 : 1;
        }
        return evicted;
    };

    std::vector<std::uint64_t> evictions(config.loop_iterations, 0);
    evictions = runTrialsReduce(
        config.trials, config.seed, trial_fn, std::move(evictions),
        [&](std::vector<std::uint64_t> acc,
            std::vector<std::uint8_t> evicted) {
            for (std::uint32_t i = 0; i < config.loop_iterations; ++i)
                acc[i] += evicted[i];
            return acc;
        });

    std::vector<double> probs(config.loop_iterations);
    for (std::uint32_t i = 0; i < config.loop_iterations; ++i)
        probs[i] = static_cast<double>(evictions[i]) /
                   static_cast<double>(config.trials);
    return probs;
}

// ----------------------------------------------------- Figures 3 and 13

LatencyHistograms
pointerChaseHistograms(const timing::Uarch &uarch, std::uint32_t samples,
                       std::uint64_t seed)
{
    const timing::MeasurementModel model(uarch);
    sim::Xoshiro256 rng(seed);
    LatencyHistograms out{Histogram(1), Histogram(1)};
    for (std::uint32_t i = 0; i < samples; ++i) {
        out.hit.add(model.chaseAllL1(7, sim::HitLevel::L1, rng));
        out.miss.add(model.chaseAllL1(7, sim::HitLevel::L2, rng));
    }
    return out;
}

LatencyHistograms
singleAccessHistograms(const timing::Uarch &uarch, std::uint32_t samples,
                       std::uint64_t seed)
{
    const timing::MeasurementModel model(uarch);
    sim::Xoshiro256 rng(seed);
    LatencyHistograms out{Histogram(1), Histogram(1)};
    for (std::uint32_t i = 0; i < samples; ++i) {
        out.hit.add(model.single(sim::HitLevel::L1, rng));
        out.miss.add(model.single(sim::HitLevel::L2, rng));
    }
    return out;
}

// ------------------------------------------------------ Tables V and VI

namespace {

/**
 * Shared harness: run `kind` through the unified channel-session
 * pipeline for a while, for its sender-side counters.  The hyper-
 * threaded co-residency of Table VI, at the scale the table used from
 * its first revision (64-bit message x4, 2000 receiver samples).
 */
channel::SessionResult
runChannelKind(const timing::Uarch &uarch, ChannelId kind,
               std::uint64_t seed)
{
    channel::SessionConfig s;
    s.channel = kind;
    s.mode = channel::SharingMode::HyperThreaded;
    s.uarch = uarch;
    s.message = channel::randomBits(64, seed);
    s.repeats = 4;
    s.ts = 6000;
    s.tr = 600;
    s.max_samples = 2000;
    s.seed = seed;
    return channel::runSession(s);
}

} // namespace

double
meanEncodeLatency(const timing::Uarch &uarch, ChannelId kind)
{
    // Micro-protocol matching the paper's Table V methodology: put the
    // sender's line into the state the channel leaves it in (flushed to
    // memory, evicted to L2, or resident in L1), then time one encode.
    sim::HierarchyConfig h;
    h.l1_way_predictor = uarch.way_predictor;
    sim::CacheHierarchy hierarchy(h);

    const auto alg = channel::senderAlgorithmFor(kind);
    channel::ChannelLayout layout(sim::CacheConfig::intelL1d(), 7, 63);
    const sim::MemRef line = layout.senderLine(alg);

    constexpr std::uint32_t kTrials = 256;
    double sum = 0.0;
    hierarchy.access(line); // establish residency
    for (std::uint32_t t = 0; t < kTrials; ++t) {
        switch (kind) {
          case ChannelId::FrMem:
            hierarchy.flush(line);
            break;
          case ChannelId::FlushDirty:
            // The receiver's timed clflush removes the line each sample.
            hierarchy.flush(line);
            break;
          case ChannelId::FrL1:
          case ChannelId::DirtyEvict:
            // The receiver evicts the line from L1 via 8 same-set lines
            // (for dirty-evict that is its refill walk).
            for (std::uint32_t i = 1; i <= layout.ways(); ++i)
                hierarchy.access(
                    layout.receiverLine(channel::LruAlgorithm::Alg1Shared,
                                        i));
            break;
          case ChannelId::LruAlg1:
          case ChannelId::LruAlg2:
          case ChannelId::PrimeProbe:
          case ChannelId::XCoreLruAlg2:
            // LRU-state and Prime+Probe senders leave the line wherever
            // it is — typically L1.
            break;
        }
        const auto res = hierarchy.access(line);
        sum += uarch.latency(res.level);
    }
    // Encoding = victim-address arithmetic + loop overhead + the access.
    return uarch.encode_addr_calc + 10.0 +
           sum / static_cast<double>(kTrials);
}

std::vector<MissRateRow>
senderMissRates(const timing::Uarch &uarch, std::uint64_t seed)
{
    return senderMissRates(uarch,
                           {ChannelId::FrMem, ChannelId::FrL1,
                            ChannelId::LruAlg1, ChannelId::LruAlg2},
                           seed);
}

std::vector<MissRateRow>
senderMissRates(const timing::Uarch &uarch,
                const std::vector<ChannelId> &channels,
                std::uint64_t seed)
{
    std::vector<MissRateRow> rows;

    for (ChannelId kind : channels) {
        const auto run = runChannelKind(uarch, kind, seed);
        rows.push_back(MissRateRow{channel::channelDisplayName(kind),
                                   run.sender_l1, run.sender_l2,
                                   run.sender_llc});
    }

    // The Algorithm 1 sender beside @p co_runner instead of a receiver.
    const auto senderBeside = [&](const char *label,
                                  exec::ThreadProgram &co_runner) {
        sim::HierarchyConfig h;
        h.l1_way_predictor = uarch.way_predictor;
        sim::CacheHierarchy hierarchy(h);
        channel::ChannelLayout layout(sim::CacheConfig::intelL1d(), 7, 63);

        channel::SenderConfig sc;
        sc.alg = channel::LruAlgorithm::Alg1Shared;
        sc.message = channel::randomBits(64, seed);
        sc.repeats = 4;
        sc.ts = 6000;
        channel::LruSender sender(layout, sc);

        exec::LowestClock policy;
        exec::EngineConfig ec;
        ec.seed = seed;
        exec::Engine engine(hierarchy, uarch, policy, ec);
        engine.run(sender, co_runner, /*primary=*/0);

        rows.push_back(MissRateRow{
            label,
            hierarchy.l1().counters().forThread(channel::kSenderThread),
            hierarchy.l2().counters().forThread(channel::kSenderThread),
            hierarchy.llc().counters().forThread(channel::kSenderThread)});
    };

    // ----- sender & gcc: the sender shares the core with a benign
    // gcc-like workload.
    workload::WorkloadProgram gcc(workload::makeWorkload("gccmix"),
                                  seed + 1, 1);
    senderBeside("sender & gcc", gcc);

    // ----- sender only.
    workload::IdleProgram idle;
    senderBeside("sender only", idle);

    return rows;
}

// -------------------------------------------------------------- Fig. 9

std::vector<workload::CpuRunResult>
replacementPerformance(const std::vector<sim::ReplPolicyKind> &policies,
                       std::uint64_t instructions, std::uint64_t seed)
{
    // One trial per (workload, policy) cell, fanned out over
    // core::runTrials.  Each trial builds its own generator so nothing
    // is shared across workers; the flattened trial order reproduces
    // the original row order (grouped by workload, one row per policy).
    const std::uint32_t npolicies =
        static_cast<std::uint32_t>(policies.size());
    if (npolicies == 0)
        return {};
    const std::vector<std::string> names = workload::workloadNames();
    const std::uint32_t nworkloads =
        static_cast<std::uint32_t>(names.size());

    return runTrials(
        nworkloads * npolicies, seed,
        [&](std::uint32_t trial, sim::Xoshiro256 &) {
            const auto gen =
                workload::makeWorkload(names[trial / npolicies]);
            workload::CpuModelConfig cfg;
            cfg.instructions = instructions;
            cfg.warmup_instructions = instructions / 10;
            cfg.seed = seed;
            return workload::runCpuModel(*gen,
                                         policies[trial % npolicies],
                                         cfg);
        });
}

// ------------------------------------------------------------- Fig. 11

PlAttackTrace
plCacheAttack(sim::PlMode mode, const timing::Uarch &uarch,
              std::size_t bits, std::uint64_t seed)
{
    channel::SessionConfig cfg;
    cfg.channel = channel::ChannelId::LruAlg2;
    cfg.uarch = uarch;
    cfg.mode = channel::SharingMode::HyperThreaded;
    cfg.pl_mode = mode;
    cfg.sender_locks_line = true;
    cfg.d = 4;
    cfg.tr = 600;
    cfg.ts = 6000;
    cfg.message = channel::alternatingBits(bits);
    cfg.seed = seed;

    const auto res = channel::runSession(cfg);

    PlAttackTrace out;
    out.samples = res.samples;
    out.sent = res.sent;
    out.threshold = res.threshold;
    out.error_rate = res.error_rate;

    // "Constant" = every post-warm-up observation classifies the same.
    const channel::Bits obs = channel::thresholdSamples(
        out.samples, out.threshold, /*invert=*/true);
    out.constant = true;
    for (std::size_t i = 5; i < obs.size(); ++i) {
        if (obs[i] != obs[5]) {
            out.constant = false;
            break;
        }
    }
    return out;
}

} // namespace lruleak::core
