/**
 * @file
 * Umbrella header: one include pulls in the whole lruleak public API.
 *
 * lruleak is a reproduction of "Leaking Information Through Cache LRU
 * States" (Xiong & Szefer, HPCA 2020): a cycle-approximate cache/SMT
 * simulator, the LRU-state covert/side channels built on top of it, the
 * Flush+Reload / Prime+Probe baselines, a Spectre-v1 transient-execution
 * harness, the PL-cache defense study, and the replacement-policy
 * performance study.
 *
 * Layering (lower layers never include higher ones):
 *
 *   sim      -> caches, replacement policies, PL cache, prefetchers
 *   timing   -> CPU models, timestamp counters, measurement primitives
 *   exec     -> thread programs, the engine + arbitration policies
 *   channel  -> LRU channels (Alg 1/2/3), baselines, decoding
 *   leakage  -> empirical MI / capacity estimation over channel traces
 *   spectre  -> transient execution + disclosure primitives
 *   workload -> synthetic SPEC-like suite + CPI model
 *   core     -> experiment runners, histograms, table rendering
 */

#ifndef LRULEAK_CORE_LRULEAK_HPP
#define LRULEAK_CORE_LRULEAK_HPP

// sim
#include "sim/address.hpp"
#include "sim/cache.hpp"
#include "sim/cache_config.hpp"
#include "sim/cache_set.hpp"
#include "sim/hierarchy.hpp"
#include "sim/plcache.hpp"
#include "sim/prefetcher.hpp"
#include "sim/random.hpp"
#include "sim/repl_state.hpp"
#include "sim/stats.hpp"
#include "sim/way_predictor.hpp"

// timing
#include "timing/pointer_chase.hpp"
#include "timing/uarch.hpp"

// exec
#include "exec/engine.hpp"
#include "exec/op.hpp"

// channel
#include "channel/bitstring.hpp"
#include "channel/channel_factory.hpp"
#include "channel/session.hpp"
#include "channel/decoder.hpp"
#include "channel/edit_distance.hpp"
#include "channel/flush_reload.hpp"
#include "channel/layout.hpp"
#include "channel/lru_channel.hpp"
#include "channel/prime_probe.hpp"

// leakage
#include "leakage/estimator.hpp"
#include "leakage/report.hpp"

// spectre
#include "spectre/attack.hpp"
#include "spectre/branch_predictor.hpp"
#include "spectre/transient_core.hpp"
#include "spectre/victim.hpp"

// workload
#include "workload/cpu_model.hpp"
#include "workload/trace_gen.hpp"

// core
#include "core/experiment.hpp"
#include "core/experiments.hpp"
#include "core/histogram.hpp"
#include "core/param.hpp"
#include "core/result_sink.hpp"
#include "core/table.hpp"

/** Library version. */
#define LRULEAK_VERSION_MAJOR 1
#define LRULEAK_VERSION_MINOR 0
#define LRULEAK_VERSION_PATCH 0

#endif // LRULEAK_CORE_LRULEAK_HPP
