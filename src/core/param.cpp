/**
 * @file
 * Parameter declaration, parsing and validation.
 */

#include "core/param.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace lruleak::core {

namespace {

std::string
lowered(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

std::string
fmtReal(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

std::string_view
paramTypeName(ParamType type)
{
    switch (type) {
      case ParamType::Int:    return "int";
      case ParamType::Real:   return "real";
      case ParamType::Flag:   return "flag";
      case ParamType::Str:    return "str";
      case ParamType::Choice: return "choice";
    }
    return "unknown";
}

ParamSpec
ParamSpec::integer(std::string name, std::int64_t def,
                   std::string description)
{
    return ParamSpec{std::move(name), ParamType::Int, std::to_string(def),
                     std::move(description), {}};
}

ParamSpec
ParamSpec::real(std::string name, double def, std::string description)
{
    return ParamSpec{std::move(name), ParamType::Real, fmtReal(def),
                     std::move(description), {}};
}

ParamSpec
ParamSpec::flag(std::string name, bool def, std::string description)
{
    return ParamSpec{std::move(name), ParamType::Flag,
                     def ? "true" : "false", std::move(description), {}};
}

ParamSpec
ParamSpec::str(std::string name, std::string def, std::string description)
{
    return ParamSpec{std::move(name), ParamType::Str, std::move(def),
                     std::move(description), {}};
}

ParamSpec
ParamSpec::choice(std::string name, std::string def,
                  std::string description, std::vector<std::string> choices)
{
    return ParamSpec{std::move(name), ParamType::Choice, std::move(def),
                     std::move(description), std::move(choices)};
}

std::int64_t
parseInt(const std::string &name, const std::string &text)
{
    try {
        // Decimal, or hexadecimal after 0x/0X: a leading zero is not
        // octal.
        const std::size_t digits = text.find_first_not_of(" \t\n\v\f\r+-");
        const bool hex = digits != std::string::npos &&
                         (text.compare(digits, 2, "0x") == 0 ||
                          text.compare(digits, 2, "0X") == 0);
        std::size_t pos = 0;
        const std::int64_t v = std::stoll(text, &pos, hex ? 16 : 10);
        if (pos != text.size())
            throw std::invalid_argument("trailing characters");
        return v;
    } catch (const std::exception &) {
        throw ParamError("parameter '" + name + "': '" + text +
                         "' is not an integer");
    }
}

double
parseReal(const std::string &name, const std::string &text)
{
    try {
        std::size_t pos = 0;
        const double v = std::stod(text, &pos);
        if (pos != text.size())
            throw std::invalid_argument("trailing characters");
        return v;
    } catch (const std::exception &) {
        throw ParamError("parameter '" + name + "': '" + text +
                         "' is not a number");
    }
}

bool
parseFlag(const std::string &name, const std::string &text)
{
    const std::string t = lowered(text);
    if (t == "1" || t == "true" || t == "yes" || t == "on")
        return true;
    if (t == "0" || t == "false" || t == "no" || t == "off")
        return false;
    throw ParamError("parameter '" + name + "': '" + text +
                     "' is not a flag (true/false/1/0/yes/no/on/off)");
}

bool
ParamMap::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

const std::string &
ParamMap::raw(const std::string &name) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        throw ParamError("parameter '" + name + "' was not declared");
    return it->second;
}

std::int64_t
ParamMap::getInt(const std::string &name) const
{
    return parseInt(name, raw(name));
}

double
ParamMap::getReal(const std::string &name) const
{
    return parseReal(name, raw(name));
}

bool
ParamMap::getFlag(const std::string &name) const
{
    return parseFlag(name, raw(name));
}

const std::string &
ParamMap::getStr(const std::string &name) const
{
    return raw(name);
}

std::uint64_t
ParamMap::getUint(const std::string &name) const
{
    const std::int64_t v = getInt(name);
    if (v < 0)
        throw ParamError("parameter '" + name + "' must be >= 0");
    return static_cast<std::uint64_t>(v);
}

std::uint32_t
ParamMap::getUint32(const std::string &name) const
{
    const std::uint64_t v = getUint(name);
    if (v > UINT32_MAX)
        throw ParamError("parameter '" + name + "' is out of range");
    return static_cast<std::uint32_t>(v);
}

ParamMap
resolveParams(const std::vector<ParamSpec> &specs,
              const std::map<std::string, std::string> &overrides)
{
    ParamMap out;
    for (const auto &spec : specs)
        out.values_[spec.name] = spec.default_value;

    for (const auto &[name, value] : overrides) {
        if (!out.values_.count(name)) {
            std::ostringstream os;
            os << "unknown parameter '" << name << "'; valid parameters:";
            if (specs.empty())
                os << " (none)";
            for (const auto &spec : specs)
                os << " " << spec.name;
            throw ParamError(os.str());
        }
        out.values_[name] = value;
    }

    // Type-check every final value (defaults included, so a bad default
    // fails loudly in tests rather than at first use).
    for (const auto &spec : specs) {
        const std::string &value = out.values_[spec.name];
        switch (spec.type) {
          case ParamType::Int:
            parseInt(spec.name, value);
            break;
          case ParamType::Real:
            parseReal(spec.name, value);
            break;
          case ParamType::Flag:
            parseFlag(spec.name, value);
            break;
          case ParamType::Str:
            break;
          case ParamType::Choice: {
            const auto it = std::find(spec.choices.begin(),
                                      spec.choices.end(), value);
            if (it == spec.choices.end()) {
                std::ostringstream os;
                os << "parameter '" << spec.name << "': '" << value
                   << "' is not one of:";
                for (const auto &c : spec.choices)
                    os << " " << c;
                throw ParamError(os.str());
            }
            break;
          }
        }
    }
    return out;
}

} // namespace lruleak::core
