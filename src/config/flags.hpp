#ifndef TRANSFW_CONFIG_FLAGS_HPP
#define TRANSFW_CONFIG_FLAGS_HPP

#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "config/config.hpp"

namespace transfw::cfg {

/** The workload half of a command line; the rest is a SystemConfig. */
struct WorkloadFlags
{
    std::string app = "MT"; ///< Table III abbreviation
    std::string model;      ///< ML training model; wins over app
    std::string trace;      ///< trace-v1 file; wins over model and app
    double scale = 0.0;     ///< app work scale; 0 = TRANSFW_SCALE or 1.0
};

/** The syntax a flag's value must have; checked before Flag::set runs. */
enum class Arg
{
    None,    ///< a switch, no value
    Int,     ///< a whole-token int: "-3" parses, "4x" does not
    Count,   ///< a whole-token non-negative 64-bit integer
    Number,  ///< a whole-token finite number
    IntPair, ///< two Ints joined by meta's ',' or ':', "8,16"
    Choice,  ///< one of the '|'-separated names in Flag::meta
    Text,    ///< any token: a name or a path
};

/** One parsed value; Flag::arg says which member is filled. */
struct FlagValue
{
    int ints[2] = {0, 0}; ///< Int (ints[0]) and IntPair
    unsigned long long count = 0;
    double number = 0;
    int choice = 0;       ///< index of the name in Flag::meta
    std::string text;     ///< the token itself, for every Arg
};

/**
 * One command-line option, as in a getopt_long option table: its name,
 * the syntax of its value, the usage text, and the setter the value
 * goes to. The table checks syntax only; every range rule on a config
 * field stays in SystemConfig::validate(), so a config built in code
 * gets the same checks as one built from flags.
 */
struct Flag
{
    std::string name; ///< "--gpus"
    Arg arg = Arg::None;
    std::string meta; ///< usage placeholder; Choice: "utc|stc|inf"
    std::string help;
    std::function<void(const FlagValue &)> set;
};

/**
 * A flag that stores its value in @p field, with the syntax the
 * field's type implies: a bool is a switch that sets it, an int an
 * Int, a 64-bit unsigned a Count, a double a Number, an enum a Choice
 * among @p meta's names in enum order, and a std::string any Text.
 */
template <typename T>
Flag
fieldFlag(std::string name, std::string meta, std::string help, T &field)
{
    Flag flag{std::move(name), Arg::Text, std::move(meta), std::move(help),
              [&field](const FlagValue &v) {
                  if constexpr (std::is_same_v<T, bool>)
                      field = true;
                  else if constexpr (std::is_enum_v<T>)
                      field = static_cast<T>(v.choice);
                  else if constexpr (std::is_floating_point_v<T>)
                      field = v.number;
                  else if constexpr (std::is_same_v<T, int>)
                      field = v.ints[0];
                  else if constexpr (std::is_unsigned_v<T>)
                      field = v.count;
                  else
                      field = v.text;
              }};
    static_assert(!std::is_unsigned_v<T> || std::is_same_v<T, bool> ||
                  sizeof(T) == sizeof(unsigned long long));
    flag.arg = std::is_same_v<T, bool>      ? Arg::None
               : std::is_enum_v<T>          ? Arg::Choice
               : std::is_floating_point_v<T> ? Arg::Number
               : std::is_same_v<T, int>     ? Arg::Int
               : std::is_unsigned_v<T>      ? Arg::Count
                                            : Arg::Text;
    return flag;
}

/**
 * The config and workload flags, bound to @p config and @p workload:
 * the one table every simulating subcommand of the transfw CLI parses,
 * and the one its sweep dimensions set values through.
 */
std::vector<Flag> configFlags(SystemConfig &config,
                              WorkloadFlags &workload);

/** The flag called @p name; fatal (exit 1) when @p flags has none. */
const Flag &findFlag(const std::vector<Flag> &flags,
                     const std::string &name);

/** Check @p token's syntax and set it; a bad token is fatal, naming
 *  the flag. */
void applyFlag(const Flag &flag, const std::string &token);

/**
 * Apply every flag in @p args and return the other tokens, in order.
 * An unknown flag or a flag missing its value is fatal.
 */
std::vector<std::string> parseFlags(const std::vector<std::string> &args,
                                    const std::vector<Flag> &flags);

/** The usage lines of @p flags: "  --name META   help", aligned. */
std::string flagUsage(const std::vector<Flag> &flags);

} // namespace transfw::cfg

#endif // TRANSFW_CONFIG_FLAGS_HPP
