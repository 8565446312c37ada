/**
 * @file
 * Engine-free trace replay through a CacheHierarchy.
 */

#include "exec/trace_program.hpp"

#include <algorithm>
#include <vector>

namespace lruleak::exec {

TraceReplayStats
replayTrace(sim::CacheHierarchy &hierarchy, const workload::TraceFile &trace,
            std::size_t chunk)
{
    chunk = std::max<std::size_t>(chunk, 1);
    std::vector<sim::MemRef> refs(std::min(chunk, trace.size()));
    std::vector<sim::HitLevel> levels(refs.size());

    TraceReplayStats stats;
    std::size_t at = 0;
    while (at < trace.size()) {
        const std::size_t n = std::min(chunk, trace.size() - at);
        for (std::size_t i = 0; i < n; ++i)
            refs[i] = trace.records[at + i].ref();
        hierarchy.accessBatch(std::span(refs.data(), n),
                              std::span(levels.data(), n));
        for (std::size_t i = 0; i < n; ++i) {
            ++stats.accesses;
            if (levels[i] == sim::HitLevel::Memory)
                ++stats.misses;
            else
                ++stats.hits;
        }
        at += n;
    }
    return stats;
}

} // namespace lruleak::exec
