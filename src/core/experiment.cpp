/**
 * @file
 * Experiment registry and runner plumbing.
 */

#include "core/experiment.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace lruleak::core {

std::map<std::string, std::string>
Experiment::smokeParams() const
{
    // Conventional scale knobs and their CI-sized ceilings.  Only knobs
    // the experiment actually declares are clamped, and only downward:
    // a default below the ceiling stays put.
    static const std::map<std::string, std::int64_t> kCeilings = {
        {"trials", 500},        {"bits", 16},
        {"repeats", 1},         {"samples", 2000},
        {"measurements", 40},   {"rounds", 2},
        {"instructions", 30000}, {"resamples", 50},
    };
    std::map<std::string, std::string> overrides;
    for (const ParamSpec &spec : params()) {
        const auto it = kCeilings.find(spec.name);
        if (it == kCeilings.end() || spec.type != ParamType::Int)
            continue;
        const std::int64_t def = parseInt(spec.name, spec.default_value);
        if (def > it->second)
            overrides[spec.name] = std::to_string(it->second);
    }
    return overrides;
}

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

void
Registry::add(std::unique_ptr<Experiment> experiment)
{
    const std::string name = experiment->name();
    if (!experiments_.emplace(name, std::move(experiment)).second)
        throw std::logic_error("experiment '" + name +
                               "' registered twice");
}

const Experiment *
Registry::find(const std::string &name) const
{
    auto it = experiments_.find(name);
    if (it == experiments_.end()) {
        std::string underscored = name;
        std::replace(underscored.begin(), underscored.end(), '-', '_');
        it = experiments_.find(underscored);
    }
    return it == experiments_.end() ? nullptr : it->second.get();
}

std::vector<const Experiment *>
Registry::all() const
{
    std::vector<const Experiment *> out;
    out.reserve(experiments_.size());
    for (const auto &[name, experiment] : experiments_)
        out.push_back(experiment.get());
    return out; // std::map iteration order is already name-sorted
}

Registrar::Registrar(std::unique_ptr<Experiment> experiment)
{
    Registry::instance().add(std::move(experiment));
}

void
runExperiment(const Experiment &experiment,
              const std::map<std::string, std::string> &overrides,
              ResultSink &sink)
{
    const ParamMap params = resolveParams(experiment.params(), overrides);
    sink.begin(experiment.name(), experiment.description(), params);
    experiment.run(params, sink);
    sink.end();
}

} // namespace lruleak::core
