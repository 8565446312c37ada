/**
 * @file
 * Declarative experiment parameters.
 *
 * Every registered experiment publishes a list of ParamSpec: name, type,
 * default and help text.  The CLI (and any other driver) turns
 * `--name=value` overrides into a validated ParamMap with
 * resolveParams(); experiments then read typed values out of the map in
 * their run() bodies without touching parsing code.
 */

#ifndef LRULEAK_CORE_PARAM_HPP
#define LRULEAK_CORE_PARAM_HPP

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace lruleak::core {

/** Value domain of one parameter. */
enum class ParamType
{
    Int,    //!< signed 64-bit integer
    Real,   //!< double
    Flag,   //!< boolean: true/false/1/0/yes/no/on/off
    Str,    //!< free-form string
    Choice, //!< one of an enumerated token set
};

std::string_view paramTypeName(ParamType type);

/** Declaration of one experiment knob. */
struct ParamSpec
{
    std::string name;
    ParamType type = ParamType::Str;
    std::string default_value;
    std::string description;
    std::vector<std::string> choices; //!< Choice only

    static ParamSpec integer(std::string name, std::int64_t def,
                             std::string description);
    static ParamSpec real(std::string name, double def,
                          std::string description);
    static ParamSpec flag(std::string name, bool def,
                          std::string description);
    static ParamSpec str(std::string name, std::string def,
                         std::string description);
    static ParamSpec choice(std::string name, std::string def,
                            std::string description,
                            std::vector<std::string> choices);
};

/** Thrown on unknown parameter names, type errors or bad choices. */
class ParamError : public std::runtime_error
{
  public:
    explicit ParamError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * Validated name -> value map.  Every declared parameter is present
 * (overridden or defaulted); getters re-parse the stored text, which
 * resolveParams() has already guaranteed to be well-formed.
 */
class ParamMap
{
  public:
    bool has(const std::string &name) const;

    std::int64_t getInt(const std::string &name) const;
    double getReal(const std::string &name) const;
    bool getFlag(const std::string &name) const;
    const std::string &getStr(const std::string &name) const;

    /** Unsigned convenience wrappers (negative values throw). */
    std::uint64_t getUint(const std::string &name) const;
    std::uint32_t getUint32(const std::string &name) const;

    /** Raw values in declaration-independent sorted order. */
    const std::map<std::string, std::string> &values() const
    {
        return values_;
    }

  private:
    friend ParamMap resolveParams(
        const std::vector<ParamSpec> &specs,
        const std::map<std::string, std::string> &overrides);

    const std::string &raw(const std::string &name) const;

    std::map<std::string, std::string> values_;
};

/**
 * Merge @p overrides into the declared defaults and validate everything:
 * unknown names, unparsable Int/Real/Flag values and out-of-set Choice
 * values all throw ParamError with a message naming the valid options.
 */
ParamMap resolveParams(const std::vector<ParamSpec> &specs,
                       const std::map<std::string, std::string> &overrides);

/** Shared parsing primitives (also used by the CLI).  parseInt reads
 *  an optionally signed decimal, or hexadecimal after 0x/0X. */
std::int64_t parseInt(const std::string &name, const std::string &text);
double parseReal(const std::string &name, const std::string &text);
bool parseFlag(const std::string &name, const std::string &text);

} // namespace lruleak::core

#endif // LRULEAK_CORE_PARAM_HPP
