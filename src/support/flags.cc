#include "flags.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <type_traits>

namespace ddsc::support
{

bool
parseDecimal(std::string_view text, std::uint64_t lo, std::uint64_t hi,
             std::uint64_t &out)
{
    // from_chars on an unsigned type already refuses a sign and
    // leading space; requiring it to consume everything refuses
    // suffixes, and an overflow comes back as an error, not a wrap.
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || stop != end || value < lo ||
        value > hi)
        return false;
    out = value;
    return true;
}

namespace
{

/** Store @p text into @p row's integer variable; false, with @p why,
 *  when it is malformed or out of range. */
bool
setInteger(const Flag &row, const std::string &text, std::string *why)
{
    return std::visit(
        [&](const auto &target) {
            using V = std::decay_t<decltype(target)>;
            if constexpr (std::is_pointer_v<V> &&
                          !std::is_same_v<V, bool *> &&
                          !std::is_same_v<V, std::string *>) {
                using T = std::remove_pointer_t<V>;
                const std::uint64_t hi = std::min<std::uint64_t>(
                    row.max, std::numeric_limits<T>::max());
                std::uint64_t value = 0;
                if (parseDecimal(text, row.min, hi, value)) {
                    *target = static_cast<T>(value);
                    return true;
                }
                *why = std::string(row.name) + " expects an integer in [" +
                       std::to_string(row.min) + ", " +
                       std::to_string(hi) + "], got '" + text + "'";
            }
            return false;
        },
        row.target);
}

} // anonymous namespace

bool
parseFlags(const std::vector<Flag> &flags,
           const std::vector<std::string> &args, std::string *why)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto row = std::find_if(
            flags.begin(), flags.end(),
            [&](const Flag &f) { return arg == f.name; });
        if (row == flags.end()) {
            *why = "unknown flag '" + arg + "'";
            return false;
        }
        const Flag::Target &target = row->target;
        if (bool *const *flag = std::get_if<bool *>(&target)) {
            **flag = row->whenPresent;
            continue;
        }
        if (i + 1 >= args.size()) {
            *why = arg + " needs a value";
            return false;
        }
        const std::string &text = args[++i];
        if (std::string *const *str = std::get_if<std::string *>(&target)) {
            **str = text;
        } else if (const auto *parse = std::get_if<Flag::Parser>(&target)) {
            if (!(*parse)(text)) {
                *why = arg + " got a malformed value '" + text + "'";
                return false;
            }
        } else if (!setInteger(*row, text, why)) {
            return false;
        }
    }
    return true;
}

void
parseCommandLine(const char *tool, int argc, char **argv,
                 void (*usage)(), const std::vector<Flag> &flags)
{
    std::string why;
    if (!parseFlags(flags, {argv + 1, argv + argc}, &why)) {
        std::fprintf(stderr, "%s: %s\n", tool, why.c_str());
        usage();
    }
}

void
encodeFlags(const std::vector<Flag> &flags, const std::vector<Flag> &base,
            std::vector<std::string> &out)
{
    for (std::size_t i = 0; i < flags.size(); ++i) {
        const Flag &row = flags[i];
        std::visit(
            [&](const auto &target) {
                using V = std::decay_t<decltype(target)>;
                if constexpr (std::is_pointer_v<V>) {
                    if (*target == *std::get<V>(base[i].target))
                        return;
                    if constexpr (std::is_same_v<V, bool *>) {
                        if (*target == row.whenPresent)
                            out.push_back(row.name);
                    } else if constexpr (std::is_same_v<V, std::string *>) {
                        out.insert(out.end(), {row.name, *target});
                    } else {
                        out.insert(out.end(),
                                   {row.name, std::to_string(*target)});
                    }
                }
            },
            row.target);
    }
}

} // namespace ddsc::support
