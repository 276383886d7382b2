/**
 * @file
 * Field tables: the one vocabulary for the simulator's named counter
 * structs. Each counter struct S lists its std::uint64_t fields once,
 * in snapshot order, in a table found by argument-dependent lookup:
 *
 *     template <StatsOf<S> T, typename F>
 *     void forEachStat(T &s, F &&f); // f(name, field) per counter
 *
 * T is S or const S, so one table drives both encoding and decoding.
 * Snapshot encoders, the result cache, every statsReport() and the
 * test comparators walk the table, so adding a counter means adding
 * one struct line and one table line. A field with an empty name is
 * encoded but never reported.
 */

#ifndef FF_COMMON_STAT_FIELDS_HH
#define FF_COMMON_STAT_FIELDS_HH

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serialize.hh"

namespace ff
{

/** T is S or const S: lets one field table serve both. */
template <typename T, typename S>
concept StatsOf = std::same_as<std::remove_const_t<T>, S>;

/** Appends every field of @p s in table order. */
template <typename S>
void
saveStats(serial::Writer &w, const S &s)
{
    forEachStat(s, [&w](std::string_view, std::uint64_t v) { w.u64(v); });
}

/** Inverse of saveStats(). */
template <typename S>
void
restoreStats(serial::Reader &r, S &s)
{
    forEachStat(s,
                [&r](std::string_view, std::uint64_t &v) { v = r.u64(); });
}

/** (name, value) lines of one report group. */
using StatLines = std::vector<std::pair<std::string, std::uint64_t>>;

/** Renders @p lines as "group.name value" lines sorted by name. */
inline std::string
renderStatLines(std::string_view group, StatLines lines)
{
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const auto &[name, value] : lines) {
        out.append(group).append(".").append(name).append(" ");
        out.append(std::to_string(value)).append("\n");
    }
    return out;
}

/** The named fields of @p s, rendered by renderStatLines(). */
template <typename S>
std::string
renderStats(std::string_view group, const S &s)
{
    StatLines lines;
    forEachStat(s, [&lines](std::string_view name, std::uint64_t v) {
        if (!name.empty())
            lines.emplace_back(name, v);
    });
    return renderStatLines(group, std::move(lines));
}

} // namespace ff

#endif // FF_COMMON_STAT_FIELDS_HH
