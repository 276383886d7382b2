/**
 * @file
 * The one outcome comparator of the sim tests. It walks every field
 * table, so a counter that the result cache, a snapshot round trip
 * or the batch engine drops or reorders fails the comparison by name.
 */

#ifndef FF_TESTS_SUPPORT_SAME_OUTCOME_HH
#define FF_TESTS_SUPPORT_SAME_OUTCOME_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stat_fields.hh"
#include "sim/harness.hh"

namespace ff
{
namespace testsupport
{

/** Every field of @p s in table order; unnamed ones by position. */
template <typename S>
StatLines
statFields(const S &s)
{
    StatLines out;
    forEachStat(s, [&out](std::string_view name, std::uint64_t v) {
        out.emplace_back(name.empty() ? "#" + std::to_string(out.size())
                                      : std::string(name),
                         v);
    });
    return out;
}

template <typename S>
void
expectSameStats(const char *group, const S &a, const S &b)
{
    const StatLines fa = statFields(a);
    const StatLines fb = statFields(b);
    ASSERT_EQ(fa.size(), fb.size()) << group;
    for (std::size_t i = 0; i < fa.size(); ++i)
        EXPECT_EQ(fa[i].second, fb[i].second) << group << "." << fa[i].first;
}

/** Every field of two outcomes except the metrics payload. */
inline void
expectSameOutcome(const sim::SimOutcome &a, const sim::SimOutcome &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.run.halted, b.run.halted);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.instsRetired, b.run.instsRetired);
    EXPECT_EQ(a.run.groupsRetired, b.run.groupsRetired);
    EXPECT_EQ(a.cycles.counts, b.cycles.counts);
    EXPECT_EQ(a.accesses.counts, b.accesses.counts);
    EXPECT_EQ(a.accesses.weightedCycles, b.accesses.weightedCycles);
    expectSameStats("branch", a.branches, b.branches);
    expectSameStats("twopass", a.twopass, b.twopass);
    expectSameStats("alat", a.alat, b.alat);
    expectSameStats("runahead", a.runahead, b.runahead);
    EXPECT_EQ(a.regFingerprint, b.regFingerprint);
    EXPECT_EQ(a.memFingerprint, b.memFingerprint);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.sampled == nullptr, b.sampled == nullptr);
}

inline void
expectSameOutcomes(const std::vector<sim::SimOutcome> &a,
                   const std::vector<sim::SimOutcome> &b,
                   const std::string &label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(label + ", outcome " + std::to_string(i));
        expectSameOutcome(a[i], b[i]);
    }
}

} // namespace testsupport
} // namespace ff

#endif // FF_TESTS_SUPPORT_SAME_OUTCOME_HH
