#include "cpu/cycle_classes.hh"

#include <sstream>

namespace ff
{
namespace cpu
{

const char *
cycleClassName(CycleClass c)
{
    switch (c) {
      case CycleClass::kUnstalled: return "unstalled";
      case CycleClass::kLoadStall: return "load_stall";
      case CycleClass::kNonLoadDepStall: return "nonload_dep_stall";
      case CycleClass::kResourceStall: return "resource_stall";
      case CycleClass::kFrontEndStall: return "frontend_stall";
      case CycleClass::kApipeStall: return "apipe_stall";
    }
    return "?";
}

std::string
CycleAccounting::render() const
{
    std::ostringstream oss;
    for (unsigned i = 0; i < kNumCycleClasses; ++i) {
        if (i)
            oss << ' ';
        oss << cycleClassName(static_cast<CycleClass>(i)) << '='
            << counts[i];
    }
    return oss.str();
}

void
CycleAccounting::save(serial::Writer &w) const
{
    for (const std::uint64_t c : counts)
        w.u64(c);
}

void
CycleAccounting::restore(serial::Reader &r)
{
    for (std::uint64_t &c : counts)
        c = r.u64();
}

} // namespace cpu
} // namespace ff
