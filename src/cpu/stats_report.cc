#include "cpu/stats_report.hh"

namespace ff
{
namespace cpu
{

std::string
commonStatsReport(const CycleAccounting &acct,
                  const branch::PredictorStats &branches,
                  const memory::AccessStats &accesses)
{
    StatLines cyc;
    for (unsigned i = 0; i < kNumCycleClasses; ++i)
        cyc.emplace_back(cycleClassName(static_cast<CycleClass>(i)),
                         acct.counts[i]);
    cyc.emplace_back("total", acct.total());

    StatLines mem;
    static const char *kWho[] = {"base", "apipe", "bpipe", "runahead"};
    for (unsigned w = 0; w < memory::kNumInitiators; ++w) {
        for (unsigned l = 0; l < memory::kNumMemLevels; ++l) {
            const auto c = accesses.counts[w][l];
            if (c == 0)
                continue;
            const std::string base =
                std::string(kWho[w]) + "." +
                memory::memLevelName(
                    static_cast<memory::MemLevel>(l));
            mem.emplace_back(base + ".accesses", c);
            mem.emplace_back(base + ".cycles",
                             accesses.weightedCycles[w][l]);
        }
    }
    return renderStatLines("cycles", std::move(cyc)) +
           renderStats("branch", branches) +
           renderStatLines("mem", std::move(mem));
}

} // namespace cpu
} // namespace ff
