/**
 * @file
 * The baseline in-order EPIC core (Figure 2(a)): issue groups stall
 * atomically in the dependence-check stage whenever any contained
 * instruction's operands are not ready, exactly the behaviour whose
 * stall cycles the two-pass design attacks. The register file and
 * scoreboard live in CoreBase's MachineState; this class adds only
 * the issue loop and its counters.
 */

#ifndef FF_CPU_BASELINE_BASELINE_CPU_HH
#define FF_CPU_BASELINE_BASELINE_CPU_HH

#include <vector>

#include "common/stat_fields.hh"
#include "cpu/core/core_base.hh"
#include "cpu/exec.hh"
#include "cpu/scoreboard.hh"

namespace ff
{
namespace cpu
{

/** Counters specific to the baseline model. */
struct BaselineStats
{
    std::uint64_t loadsIssued = 0;
    std::uint64_t storesIssued = 0;
    std::uint64_t branchesRetired = 0;
    std::uint64_t mispredicts = 0;

    void reset() { *this = BaselineStats(); }
};

template <StatsOf<BaselineStats> S, typename F>
void
forEachStat(S &s, F &&f)
{
    f("loads_issued", s.loadsIssued);
    f("stores_issued", s.storesIssued);
    f("branches_retired", s.branchesRetired);
    f("mispredicts", s.mispredicts);
}

/** In-order, stall-on-use EPIC pipeline. */
class BaselineCpu : public CoreBase
{
  public:
    BaselineCpu(const isa::Program &prog, const CoreConfig &cfg,
                bool load_image = true);

    RunResult
    run(std::uint64_t max_cycles) final
    {
        return runLoop(
            [this](Cycle now, RunResult &res) {
                return tryIssue(now, res);
            },
            max_cycles);
    }

    const RegFile &archRegs() const override { return _ms.regs; }

    const BaselineStats &stats() const { return _stats; }

    std::string statsReport() const override;

  protected:
    void saveModelState(serial::Writer &w) const override;
    void restoreModelState(serial::Reader &r) override;

  private:
    /**
     * Attempts to issue the head issue group at @p now.
     * @return the cycle's classification; retires the group when
     *         kUnstalled
     */
    CycleClass tryIssue(Cycle now, RunResult &res);

    BaselineStats _stats;
    /** Operands of the issuing group, reused so issue never
     *  allocates. Scratch, not machine state. */
    std::vector<SlotOperands> _ops;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_BASELINE_BASELINE_CPU_HH
