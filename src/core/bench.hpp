/**
 * @file
 * The `lruleak bench` harness: accesses/sec of the simulator hot path.
 *
 * Two lanes replay the same tag trace through one cache set per
 * policy:
 *
 *   value   - CacheSet::access on the inline ReplState (per-access
 *             std::visit dispatch);
 *   replay  - CacheSet::replayBatch (dispatch hoisted out of the loop,
 *             inner loop specialised per concrete state, aggregate
 *             stats only — what Table I's Monte-Carlo loops replaying a
 *             sequence for its state effect use).
 *
 * Two workloads: "seq1_walk", the paper's Sequence 1 (lines 0..N walked
 * in order — the access pattern of the channel protocols and Table I),
 * and "hot_mix", a random hot/cold tag mix.  Results feed
 * BENCH_sim.json; the lane that matters most is replay on TreePLRU
 * under seq1_walk (the Intel L1D policy and access pattern every
 * channel experiment exercises).
 */

#ifndef LRULEAK_CORE_BENCH_HPP
#define LRULEAK_CORE_BENCH_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/repl_state.hpp"

namespace lruleak::core {

/** Knobs of one bench run. */
struct SimBenchConfig
{
    std::uint64_t accesses = 8'000'000; //!< per lane, per policy
    std::uint32_t ways = 8;             //!< set associativity
    std::uint32_t hot_tags = 8;         //!< working set that mostly hits
    std::uint32_t cold_tags = 24;       //!< conflict tags that miss
    double hot_fraction = 0.75;         //!< P(access draws a hot tag)
    std::uint64_t seed = 1;
    std::uint32_t repeats = 5; //!< timed runs of every lane
    std::vector<sim::ReplPolicyKind> policies; //!< empty = all six
};

/** One lane's rate over the repeats of a run. */
struct LaneRate
{
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Median (of the middle two for an even count), min and max of
 *  @p samples; all zero when there are none. */
LaneRate laneRate(std::vector<double> samples);

/** The trace shapes the bench drives. */
enum class BenchWorkload
{
    Seq1Walk, //!< paper Sequence 1: lines 0..ways walked in order
    HotMix,   //!< random hot-working-set / cold-conflict mix
};

std::string_view benchWorkloadName(BenchWorkload w);

/** Throughput of the two lanes for one (workload, policy) cell. */
struct SimBenchRow
{
    BenchWorkload workload = BenchWorkload::Seq1Walk;
    sim::ReplPolicyKind policy = sim::ReplPolicyKind::TreePlru;
    LaneRate value;  //!< accesses/sec, per-access path
    LaneRate replay; //!< accesses/sec, replayBatch (stats only)
};

/** Run the bench for every configured policy, each lane
 *  config.repeats times. */
std::vector<SimBenchRow> runSimBench(const SimBenchConfig &config);

/**
 * One macro lane: a whole-subsystem hot path timed end to end.  These
 * absorb the orphan google-benchmark binary (bench/microbench_simulator)
 * into the `lruleak bench` flow: raw cache hits and miss streams, full
 * hierarchy walks, 4-core hierarchy accesses in the level and store
 * mix of lrubench's trace_writes workload, covert-channel bits through
 * the execution engine (single-core SMT and cross-core LLC), and
 * Spectre victim calls.
 */
struct MacroBenchRow
{
    std::string name;        //!< lane identifier
    std::uint64_t items = 0; //!< operations executed per run
    LaneRate items_per_sec;
};

/** Run the macro lanes (scaled from config.accesses), all of them
 *  once per repeat. */
std::vector<MacroBenchRow> runMacroBench(const SimBenchConfig &config);

/**
 * Floor thresholds for `lruleak bench --check` (the CI perf gate).
 *
 * The macro floors are set well under the post-fast-path numbers on a
 * single shared-runner core (covert ~75e3, xcore ~34e3 bits/s) but
 * above the pre-fast-path baselines (~18e3 / ~8e3), so the gate trips
 * on a genuine regression of the Session hot path rather than on
 * machine noise.  The L1 hit floor sits well under the lowest recorded
 * median of the flat-level hit path (38.7e6 accesses/s).
 */
struct BenchCheckConfig
{
    double covert_bit_floor = 30'000.0; //!< covert_channel_bit items/s
    double xcore_bit_floor = 15'000.0;  //!< xcore_channel_bit items/s
    double trace_replay_floor = 500'000.0; //!< trace_replay_access items/s
    double cache_access_hit_floor = 15'000'000.0; //!< cache_access_hit
                                                  //!< items/s
};

/**
 * Apply the floors to the medians of a finished run's macro lanes;
 * prints one line per violation to @p os.  Returns true when every
 * floor holds.
 */
bool checkSimBench(const BenchCheckConfig &check,
                   const std::vector<MacroBenchRow> &macro,
                   std::ostream &os);

/** Emit the BENCH_sim.json document. */
void writeSimBenchJson(const SimBenchConfig &config,
                       const std::vector<SimBenchRow> &rows,
                       const std::vector<MacroBenchRow> &macro,
                       std::ostream &os);

} // namespace lruleak::core

#endif // LRULEAK_CORE_BENCH_HPP
