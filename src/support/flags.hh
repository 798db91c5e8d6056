/**
 * @file
 * Strict, table-driven command-line flags.
 *
 * atoi-style parsing turns "12x" into 12, "-1" into a huge count, and
 * "garbage" into 0, so a typo silently becomes a different setting.
 * parseDecimal() takes only what it can represent exactly, and a
 * table of Flag rows — each binding one flag name to the variable it
 * sets — drives both directions: parseFlags() reads an argv into the
 * variables, encodeFlags() writes the variables back out as argv.
 * Because both walk the same rows, whatever one side can say the
 * other can read (see serve::serverFlags()).
 */

#ifndef DDSC_SUPPORT_FLAGS_HH
#define DDSC_SUPPORT_FLAGS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ddsc::support
{

/** Parse @p text as a plain decimal integer in [@p lo, @p hi]: digits
 *  only, no sign, space, or suffix.  False leaves @p out untouched. */
bool parseDecimal(std::string_view text, std::uint64_t lo,
                  std::uint64_t hi, std::uint64_t &out);

/**
 * One flag bound to the variable it sets.  A numeric flag takes one
 * value, parsed strictly into [min, max] (further capped by the
 * variable's type); a string flag takes one value verbatim; a parser
 * flag hands its value to a function that says whether it was valid
 * (and is never encoded); a bool flag takes none and stores
 * whenPresent, so `--brownout` and `--no-brownout` are two rows over
 * one bool.
 */
struct Flag
{
    using Parser = std::function<bool(const std::string &)>;
    using Target = std::variant<std::string *, bool *, unsigned short *,
                                unsigned *, unsigned long *,
                                unsigned long long *, Parser>;

    const char *name;
    Target target;
    std::uint64_t min = 0;
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    bool whenPresent = true;
};

/** Apply @p args (argv without argv[0]) to the variables of @p flags.
 *  False, with @p why naming the offending flag, on an unknown flag, a
 *  missing value, or a value out of its row's range. */
bool parseFlags(const std::vector<Flag> &flags,
                const std::vector<std::string> &args, std::string *why);

/** parseFlags() over argv[1..argc), or else print "<tool>: <why>"
 *  and call @p usage, which must not return. */
void parseCommandLine(const char *tool, int argc, char **argv,
                      void (*usage)(), const std::vector<Flag> &flags);

/**
 * Append to @p out every flag of @p flags whose variable differs from
 * the same row of @p base (a table built by the same function over
 * default values), so parsing @p out onto those defaults reproduces
 * @p flags' variables exactly.
 */
void encodeFlags(const std::vector<Flag> &flags,
                 const std::vector<Flag> &base,
                 std::vector<std::string> &out);

} // namespace ddsc::support

#endif // DDSC_SUPPORT_FLAGS_HH
