/**
 * @file
 * Strict numeric flag parsing shared by the command-line tools.
 *
 * The whole value must parse: atoi-style coercion ("11x" -> 11,
 * "abc" -> 0) silently runs the wrong experiment, so a malformed value
 * prints an error naming the flag and exits with status 2.
 */

#ifndef PERSIM_TOOLS_FLAGS_HH
#define PERSIM_TOOLS_FLAGS_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace persim::tools
{

/** @p v as a non-negative decimal integer, or exit 2 naming @p flag. */
inline std::uint64_t
parseNum(const char *flag, const std::string &v)
{
    std::uint64_t out = 0;
    const char *end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (v.empty() || ec != std::errc() || ptr != end) {
        std::fprintf(stderr, "%s wants a non-negative integer, got '%s'\n",
                     flag, v.c_str());
        std::exit(2);
    }
    return out;
}

/** parseNum limited to the range of unsigned. */
inline unsigned
parseNumU32(const char *flag, const std::string &v)
{
    const std::uint64_t n = parseNum(flag, v);
    if (n > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "%s value '%s' is out of range\n", flag,
                     v.c_str());
        std::exit(2);
    }
    return static_cast<unsigned>(n);
}

/** @p v as a finite non-negative decimal number, or exit 2. */
inline double
parseReal(const char *flag, const std::string &v)
{
    double out = 0;
    const char *end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (v.empty() || ec != std::errc() || ptr != end || !(out >= 0) ||
        out > std::numeric_limits<double>::max()) {
        std::fprintf(stderr, "%s wants a non-negative number, got '%s'\n",
                     flag, v.c_str());
        std::exit(2);
    }
    return out;
}

} // namespace persim::tools

#endif // PERSIM_TOOLS_FLAGS_HH
