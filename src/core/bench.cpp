/**
 * @file
 * `lruleak bench` implementation.
 */

#include "core/bench.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <ostream>

#include "channel/session.hpp"
#include "exec/trace_program.hpp"
#include "sim/cache_set.hpp"
#include "sim/hierarchy.hpp"
#include "sim/multicore_hierarchy.hpp"
#include "sim/random.hpp"
#include "spectre/transient_core.hpp"
#include "spectre/victim.hpp"

namespace lruleak::core {

namespace {

using sim::Addr;

/** The shared tag trace of one workload, replayed cyclically. */
std::vector<Addr>
makeTrace(const SimBenchConfig &config, BenchWorkload workload)
{
    // A bounded trace replayed cyclically keeps memory flat while the
    // access count scales.
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(config.accesses, 1u << 20));
    std::vector<Addr> trace(len);
    switch (workload) {
      case BenchWorkload::Seq1Walk:
        // Paper Sequence 1: lines 0..N in order (N+1 tags in an N-way
        // set) — the channel init/decode walk and the Table I loop.
        for (std::size_t i = 0; i < len; ++i)
            trace[i] = 1 + (i % (config.ways + 1));
        break;
      case BenchWorkload::HotMix: {
        sim::Xoshiro256 rng(config.seed);
        for (auto &tag : trace) {
            if (rng.chance(config.hot_fraction))
                tag = 1 + rng.below(config.hot_tags);
            else
                tag = 1000 + rng.below(config.cold_tags);
        }
        break;
      }
    }
    return trace;
}

using Clock = std::chrono::steady_clock;

double
accessesPerSecond(std::uint64_t accesses, Clock::time_point start,
                  Clock::time_point stop)
{
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    return secs > 0.0 ? static_cast<double>(accesses) / secs : 0.0;
}

/** Fold a result into the anti-DCE checksum. */
inline std::uint64_t
fold(std::uint64_t sink, std::uint32_t way, bool hit)
{
    return sink + way + (hit ? 1 : 0);
}

// Keep the checksum observable so no lane gets optimised away.
volatile std::uint64_t g_bench_sink = 0;

double
benchValue(const SimBenchConfig &config, sim::ReplPolicyKind kind,
           const std::vector<Addr> &trace)
{
    sim::CacheSet set(config.ways,
                      sim::ReplState::make(kind, config.ways, config.seed));
    std::uint64_t sink = 0;
    std::size_t pos = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < config.accesses; ++i) {
        const auto res =
            set.access(trace[pos], 0, false, sim::LockReq::None);
        if (++pos == trace.size())
            pos = 0;
        sink = fold(sink, res.way, res.hit);
    }
    const auto stop = Clock::now();
    g_bench_sink = g_bench_sink + sink;
    return accessesPerSecond(config.accesses, start, stop);
}

/** Accesses per replayBatch call in the replay lane. */
constexpr std::uint64_t kReplayChunk = 4096;

double
benchReplay(const SimBenchConfig &config, sim::ReplPolicyKind kind,
            const std::vector<Addr> &trace)
{
    sim::CacheSet set(config.ways,
                      sim::ReplState::make(kind, config.ways, config.seed));
    std::uint64_t sink = 0;
    std::uint64_t done = 0;
    std::size_t pos = 0;
    const auto start = Clock::now();
    while (done < config.accesses) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kReplayChunk, config.accesses - done));
        // The trace is replayed cyclically; feed contiguous runs so the
        // batch sees one span (wrap mid-trace by splitting the chunk).
        const std::size_t run = std::min(n, trace.size() - pos);
        const auto stats = set.replayBatch(
            std::span<const Addr>(trace.data() + pos, run));
        sink += stats.hits + stats.fills;
        pos = (pos + run) % trace.size();
        done += run;
    }
    const auto stop = Clock::now();
    g_bench_sink = g_bench_sink + sink;
    return accessesPerSecond(config.accesses, start, stop);
}

/** `{"median": ..., "min": ..., "max": ...}` */
void
writeRate(std::ostream &os, const LaneRate &rate)
{
    os << "{\"median\": " << rate.median << ", \"min\": " << rate.min
       << ", \"max\": " << rate.max << "}";
}

} // namespace

LaneRate
laneRate(std::vector<double> samples)
{
    if (samples.empty())
        return {};
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return {(samples[(n - 1) / 2] + samples[n / 2]) / 2.0, samples.front(),
            samples.back()};
}

std::string_view
benchWorkloadName(BenchWorkload w)
{
    switch (w) {
      case BenchWorkload::Seq1Walk: return "seq1_walk";
      case BenchWorkload::HotMix:   return "hot_mix";
    }
    return "unknown";
}

namespace {

/** One timed run of a macro lane. */
struct MacroSample
{
    std::string name;
    std::uint64_t items = 0;
    double items_per_sec = 0.0;
};

std::vector<MacroSample>
macroPass(const SimBenchConfig &config)
{
    // Per-lane op counts scale with --accesses (and therefore shrink
    // under --smoke); the expensive end-to-end lanes scale sublinearly.
    const std::uint64_t fast_ops =
        std::max<std::uint64_t>(config.accesses / 4, 10'000);
    const std::uint64_t walk_ops =
        std::max<std::uint64_t>(config.accesses / 8, 5'000);
    // Sized for the Session fast path: bits are ~25x cheaper than they
    // were pre-overhaul, so a full-scale run times 160 bits per lane —
    // a multi-millisecond window that measures the steady-state per-bit
    // cost instead of timer noise.
    const std::uint64_t channel_bits =
        std::max<std::uint64_t>(config.accesses / 25'000, 4);
    const std::uint64_t victim_calls =
        std::max<std::uint64_t>(config.accesses / 2'000, 200);

    std::vector<MacroSample> rows;

    {
        // L1 hit path: one resident line accessed repeatedly.
        sim::Cache cache(sim::CacheConfig::intelL1d());
        const auto ref = sim::MemRef::load(0x40);
        cache.access(ref);
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < fast_ops; ++i)
            sink = fold(sink, cache.access(ref).way, true);
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + sink;
        rows.push_back({"cache_access_hit", fast_ops,
                        accessesPerSecond(fast_ops, start, stop)});
    }
    {
        // Streaming miss path: every access fills a new line.
        sim::Cache cache(sim::CacheConfig::intelL1d());
        sim::Addr addr = 0;
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < fast_ops; ++i) {
            sink = fold(sink, cache.access(sim::MemRef::load(addr)).way,
                        false);
            addr += 64;
        }
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + sink;
        rows.push_back({"cache_miss_stream", fast_ops,
                        accessesPerSecond(fast_ops, start, stop)});
    }
    {
        // Full three-level hierarchy walk over a large random footprint.
        sim::CacheHierarchy h;
        sim::Xoshiro256 rng(config.seed + 1);
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < walk_ops; ++i) {
            const auto res =
                h.access(sim::MemRef::load(rng.below(1 << 22) * 64));
            sink += static_cast<std::uint64_t>(res.level);
        }
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + sink;
        rows.push_back({"hierarchy_walk", walk_ops,
                        accessesPerSecond(walk_ops, start, stop)});
    }
    {
        // Cross-core layer: the default topology at 4 cores, driven
        // through MultiCoreHierarchy::access with the mix lrubench's
        // trace_writes workload issues there.  Its 5.34M multi-core
        // accesses at seed 1 (tallied from the access results): 70.3%
        // served by L1, 10.4% by L2, 7.8% by the LLC, 11.6% by memory;
        // 16.6% stores (10% of the L1 hits, 51% of the L2 hits, 16% of
        // the LLC hits, 26% of the memory fills); 0.129 write-backs per
        // access; one back-invalidating LLC eviction per 306 accesses.
        // Each 100-access round aims 70/10/8/12 accesses at L1/L2/LLC/
        // memory with 8/5/1/2 stores among them, in one seeded order,
        // issued by the cores in turn.  Per core: 4 hot lines (L1), a
        // 16-line ring in one L1 set (L2), a 16-line ring in one L2 set
        // (LLC); shared by all cores, a 4 MiB stream over every 32nd
        // LLC set (memory), which also ages the idle LLC copies of the
        // cores' lines out.  The lane's own tallies: 70.0/9.8/8.0/12.2%,
        // 16.0% stores, 0.132 write-backs per access, one
        // back-invalidating eviction per 428 accesses.
        sim::MultiCoreConfig mc;
        mc.cores = 4;
        sim::MultiCoreHierarchy h(mc);
        enum class Aim : std::uint8_t { L1, L2, Llc, Memory };
        struct Slot
        {
            Aim aim;
            bool store;
        };
        std::array<Slot, 100> round{};
        {
            std::size_t k = 0;
            const auto put = [&](Aim aim, int n, int stores) {
                for (int j = 0; j < n; ++j)
                    round[k++] = {aim, j < stores};
            };
            put(Aim::L1, 70, 8);
            put(Aim::L2, 10, 5);
            put(Aim::Llc, 8, 1);
            put(Aim::Memory, 12, 2);
            sim::Xoshiro256 rng(config.seed + 7);
            for (std::size_t j = round.size() - 1; j > 0; --j)
                std::swap(round[j], round[rng.below(j + 1)]);
        }
        const Addr l1_stride = Addr{mc.l1.numSets()} * mc.l1.line_size;
        const Addr l2_stride = Addr{mc.l2.numSets()} * mc.l2.line_size;
        const Addr llc_stride = Addr{mc.llc.numSets()} * mc.llc.line_size;
        std::array<std::array<std::uint32_t, 3>, 4> next{};
        std::uint64_t stream = 0;
        const auto op = [&](std::uint64_t i) {
            const Slot slot = round[i % round.size()];
            const auto core = static_cast<std::uint32_t>(i % 4);
            // Per-core region, shifted 4 lines per core so the cores'
            // rings land in different LLC sets.
            const Addr base = (Addr{core + 1} << 26) + core * 4 * 64;
            auto &n = next[core];
            Addr addr = 0;
            switch (slot.aim) {
              case Aim::L1: addr = base + (n[0]++ % 4) * 64; break;
              case Aim::L2:
                addr = base + 32 * 64 + (n[1]++ % 16) * l1_stride;
                break;
              case Aim::Llc:
                addr = base + 48 * 64 + (n[2]++ % 16) * l2_stride;
                break;
              case Aim::Memory: {
                const std::uint64_t j = stream++ % 65536;
                addr = (Addr{8} << 26) + (j % 64) * 32 * 64 +
                       (j / 64) * llc_stride;
                break;
              }
            }
            const auto ref = slot.store ? sim::MemRef::store(addr)
                                        : sim::MemRef::load(addr);
            return h.access(core, ref).level;
        };
        for (std::uint64_t i = 0; i < 100'000; ++i)
            op(i);
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < fast_ops; ++i)
            sink += static_cast<std::uint64_t>(op(i));
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + sink + h.backInvalidations();
        rows.push_back({"multicore_access", fast_ops,
                        accessesPerSecond(fast_ops, start, stop)});
    }
    {
        // Trace-fed hierarchy replay: the fleet front end's fast path
        // (workload::TraceFile pumped through CacheHierarchy::accessBatch),
        // on a mixed load/store trace so the write path is in the lane.
        const auto trace = workload::generateTrace(
            "gccmix", static_cast<std::size_t>(walk_ops),
            config.seed + 5, 0.2);
        sim::CacheHierarchy h;
        {
            // Warm-up: first-touch page faults of the ref/level buffers
            // and the trace pages stay out of the measured window.
            workload::TraceFile warm;
            warm.records.assign(
                trace.records.begin(),
                trace.records.begin() +
                    std::min<std::size_t>(trace.size(), 10'000));
            exec::replayTrace(h, warm);
            h.reset();
        }
        const auto start = Clock::now();
        const auto stats = exec::replayTrace(h, trace);
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + stats.hits;
        rows.push_back({"trace_replay_access", stats.accesses,
                        accessesPerSecond(stats.accesses, start, stop)});
    }
    {
        // End-to-end covert-channel bits through the execution engine
        // (LowestClock over the single-core hierarchy), on the
        // Session fast path: pooled topology, sender paced at the
        // receiver's sampling period.  What the session decodes is
        // pinned by BenchChannelLanes.* in tests/test_bench.cpp, which
        // copies this config.
        channel::SessionConfig cfg;
        cfg.channel = channel::ChannelId::LruAlg1;
        cfg.message = channel::Bits{1, 0, 1, 1};
        cfg.repeats = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(channel_bits / 4, 1));
        cfg.encode_gap = static_cast<std::uint32_t>(cfg.tr);
        cfg.seed = config.seed + 3;
        const std::uint64_t bits = cfg.message.size() * cfg.repeats;
        {
            // Warm-up session: fills the thread-local topology pool so
            // the measured window covers the steady-state per-bit cost,
            // not one-time setup.
            channel::SessionConfig warm = cfg;
            warm.repeats = 1;
            channel::runSession(warm);
        }
        const auto start = Clock::now();
        const auto res = channel::runSession(cfg);
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + res.received.size();
        rows.push_back({"covert_channel_bit", bits,
                        accessesPerSecond(bits, start, stop)});
    }
    {
        // Cross-core bits: LowestClock over the multi-core hierarchy,
        // same fast-path methodology as the covert lane.  The lane
        // times throughput, not fidelity; BenchChannelLanes.* in
        // tests/test_bench.cpp copies this config and bounds the error
        // of the 160-bit run.
        channel::SessionConfig cfg;
        cfg.channel = channel::ChannelId::XCoreLruAlg2;
        cfg.mode = channel::SharingMode::CrossCore;
        cfg.d = 12;
        cfg.tr = 3000;
        cfg.ts = 30000;
        cfg.llc_policy = sim::ReplPolicyKind::TreePlru;
        cfg.message = channel::Bits{1, 0, 1, 1};
        cfg.repeats = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(channel_bits / 4, 1));
        cfg.encode_gap = static_cast<std::uint32_t>(cfg.tr);
        cfg.seed = config.seed + 4;
        const std::uint64_t bits = cfg.message.size() * cfg.repeats;
        {
            channel::SessionConfig warm = cfg;
            warm.repeats = 1;
            channel::runSession(warm);
        }
        const auto start = Clock::now();
        const auto res = channel::runSession(cfg);
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + res.received.size();
        rows.push_back({"xcore_channel_bit", bits,
                        accessesPerSecond(bits, start, stop)});
    }
    {
        // Transient victim calls (the Spectre harness inner loop).
        sim::CacheHierarchy h;
        spectre::SpectreVictim victim("x");
        spectre::TransientCore core(h, timing::Uarch::intelXeonE52690());
        for (int i = 0; i < 6; ++i)
            core.callVictim(victim, 0, spectre::GadgetPart::LowSixBits);
        std::uint64_t sink = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < victim_calls; ++i) {
            sink += core.callVictim(victim,
                                    spectre::SpectreVictim::maliciousX(0),
                                    spectre::GadgetPart::LowSixBits)
                        .load2_landed
                        ? 1
                        : 0;
        }
        const auto stop = Clock::now();
        g_bench_sink = g_bench_sink + sink;
        rows.push_back({"spectre_victim_call", victim_calls,
                        accessesPerSecond(victim_calls, start, stop)});
    }

    return rows;
}

} // namespace

std::vector<MacroBenchRow>
runMacroBench(const SimBenchConfig &config)
{
    std::vector<MacroBenchRow> rows;
    std::vector<std::vector<double>> rates;
    for (std::uint32_t r = 0; r < config.repeats; ++r) {
        const auto pass = macroPass(config);
        rows.resize(pass.size());
        rates.resize(pass.size());
        for (std::size_t i = 0; i < pass.size(); ++i) {
            rows[i].name = pass[i].name;
            rows[i].items = pass[i].items;
            rates[i].push_back(pass[i].items_per_sec);
        }
    }
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i].items_per_sec = laneRate(std::move(rates[i]));
    return rows;
}

std::vector<SimBenchRow>
runSimBench(const SimBenchConfig &config)
{
    const auto policies = config.policies.empty()
                              ? sim::allReplPolicyKinds()
                              : config.policies;

    std::vector<SimBenchRow> rows;
    rows.reserve(2 * policies.size());
    for (auto workload : {BenchWorkload::Seq1Walk, BenchWorkload::HotMix}) {
        const auto trace = makeTrace(config, workload);
        for (auto kind : policies) {
            SimBenchRow row;
            row.workload = workload;
            row.policy = kind;
            // Warm-up pass per lane keeps the first-touch page faults
            // and frequency ramp out of the measured window.
            {
                SimBenchConfig warm = config;
                warm.accesses = std::min<std::uint64_t>(config.accesses,
                                                        100'000);
                benchValue(warm, kind, trace);
                benchReplay(warm, kind, trace);
            }
            std::vector<double> value, replay;
            for (std::uint32_t r = 0; r < config.repeats; ++r) {
                value.push_back(benchValue(config, kind, trace));
                replay.push_back(benchReplay(config, kind, trace));
            }
            row.value = laneRate(std::move(value));
            row.replay = laneRate(std::move(replay));
            rows.push_back(row);
        }
    }
    return rows;
}

bool
checkSimBench(const BenchCheckConfig &check,
              const std::vector<MacroBenchRow> &macro, std::ostream &os)
{
    bool ok = true;
    const auto macroFloor = [&](const char *lane, double floor) {
        for (const auto &row : macro) {
            if (row.name != lane)
                continue;
            if (row.items_per_sec.median < floor) {
                os << "CHECK FAILED: " << lane << " median "
                   << row.items_per_sec.median << " items/s < floor "
                   << floor << "\n";
                ok = false;
            }
            return;
        }
        os << "CHECK FAILED: lane '" << lane << "' missing from run\n";
        ok = false;
    };
    macroFloor("covert_channel_bit", check.covert_bit_floor);
    macroFloor("xcore_channel_bit", check.xcore_bit_floor);
    macroFloor("trace_replay_access", check.trace_replay_floor);
    macroFloor("cache_access_hit", check.cache_access_hit_floor);
    return ok;
}

void
writeSimBenchJson(const SimBenchConfig &config,
                  const std::vector<SimBenchRow> &rows,
                  const std::vector<MacroBenchRow> &macro, std::ostream &os)
{
    os << "{\n"
       << "  \"bench\": \"sim_access\",\n"
       << "  \"unit\": \"accesses_per_second\",\n"
       << "  \"accesses\": " << config.accesses << ",\n"
       << "  \"ways\": " << config.ways << ",\n"
       << "  \"seed\": " << config.seed << ",\n"
       << "  \"repeats\": " << config.repeats << ",\n"
       << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &row = rows[i];
        os << "    {\"workload\": \"" << benchWorkloadName(row.workload)
           << "\", \"policy\": \"" << sim::replPolicyName(row.policy)
           << "\",\n     \"value_access\": ";
        writeRate(os, row.value);
        os << ",\n     \"value_replay\": ";
        writeRate(os, row.replay);
        os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"macro\": [\n";
    for (std::size_t i = 0; i < macro.size(); ++i) {
        os << "    {\"lane\": \"" << macro[i].name
           << "\", \"items\": " << macro[i].items
           << ", \"items_per_second\": ";
        writeRate(os, macro[i].items_per_sec);
        os << "}" << (i + 1 < macro.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace lruleak::core
