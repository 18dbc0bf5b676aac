#ifndef TRANSFW_SIM_PARSE_HPP
#define TRANSFW_SIM_PARSE_HPP

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <type_traits>

namespace transfw::sim {

/**
 * Strict parse of a whole token as a T: "4x", "", " 4" and values out
 * of T's range are rejected, and so are a minus sign for unsigned T and
 * nan/inf for floating-point T. Integral T read digits in @p base (16
 * takes hex digits with no "0x" prefix). The one number parser behind
 * the command-line flags, the TRANSFW_* environment variables and
 * trace files.
 */
template <typename T>
std::optional<T>
parseToken(std::string_view text, int base = 10)
{
    T value{};
    const char *end = text.data() + text.size();
    std::from_chars_result res{};
    if constexpr (std::is_integral_v<T>)
        res = std::from_chars(text.data(), end, value, base);
    else
        res = std::from_chars(text.data(), end, value);
    if (res.ec != std::errc() || res.ptr != end)
        return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            return std::nullopt;
    }
    return value;
}

} // namespace transfw::sim

#endif // TRANSFW_SIM_PARSE_HPP
