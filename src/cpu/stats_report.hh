/**
 * @file
 * Shared rendering of CPU-model statistics into gem5-style
 * "group.stat value" dumps (common/stat_fields.hh).
 */

#ifndef FF_CPU_STATS_REPORT_HH
#define FF_CPU_STATS_REPORT_HH

#include <string>

#include "branch/gshare.hh"
#include "common/stat_fields.hh"
#include "cpu/cycle_classes.hh"
#include "memory/hierarchy.hh"

namespace ff
{
namespace cpu
{

/** Cycle classes, branch and per-level access stats common to all
 *  timed models. */
std::string commonStatsReport(const CycleAccounting &acct,
                              const branch::PredictorStats &branches,
                              const memory::AccessStats &accesses);

} // namespace cpu
} // namespace ff

#endif // FF_CPU_STATS_REPORT_HH
