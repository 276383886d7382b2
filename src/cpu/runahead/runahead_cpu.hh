/**
 * @file
 * A checkpoint-based run-ahead in-order core in the style the paper
 * synthesizes from Dundas and Mutlu (Sec. 2): when the issue stage
 * blocks on a load, the machine checkpoints register state and keeps
 * executing speculatively — propagating INV marks through
 * miss-dependent results, prefetching down the instruction stream,
 * and buffering stores in a discardable overlay — until the blocking
 * load returns, then restores the checkpoint and resumes normally,
 * discarding all run-ahead results.
 *
 * The architectural file/scoreboard and the run-ahead shadow copies
 * (checkpoint file, INV bitset, shadow scoreboard) all live in
 * CoreBase's MachineState; checkpointing copies only the slots dirty
 * since the last episode instead of the whole file.
 *
 * This is the comparison point against which two-pass pipelining's
 * retention of pre-executed work is evaluated (`bench_ablate runahead`).
 */

#ifndef FF_CPU_RUNAHEAD_RUNAHEAD_CPU_HH
#define FF_CPU_RUNAHEAD_RUNAHEAD_CPU_HH

#include <map>
#include <vector>

#include "cpu/core/core_base.hh"
#include "cpu/exec.hh"
#include "cpu/scoreboard.hh"

namespace ff
{
namespace cpu
{

// RunaheadStats lives in cpu/model_stats.hh (below cpu.hh) so the
// abstract model can expose the collectStats() hook.

/** In-order core with run-ahead pre-execution under load stalls. */
class RunaheadCpu : public CoreBase
{
  public:
    RunaheadCpu(const isa::Program &prog, const CoreConfig &cfg,
                bool load_image = true);

    RunResult
    run(std::uint64_t max_cycles) final
    {
        return runLoop(
            [this](Cycle now, RunResult &res) { return tick(now, res); },
            max_cycles);
    }

    const RegFile &archRegs() const override { return _ms.regs; }

    const RunaheadStats &runaheadStats() const { return _raStats; }

    void
    collectStats(ModelStats &out) const override
    {
        out.runahead = _raStats;
    }

    std::string statsReport() const override;

  protected:
    void saveModelState(serial::Writer &w) const override;
    void restoreModelState(serial::Reader &r) override;

  private:
    CycleClass tick(Cycle now, RunResult &res);

    CycleClass tryIssue(Cycle now, RunResult &res);

    /** Enters run-ahead: checkpoint and mark pending regs INV. */
    void enterRunahead(Cycle now, Cycle exit_at);
    /** Exits run-ahead: restore the checkpoint and refetch. */
    void exitRunahead(Cycle now);
    /** One cycle of run-ahead pre-execution. */
    void runaheadStep(Cycle now);

    RunaheadStats _raStats;
    /** Operands of the issuing group, reused so issue never
     *  allocates. Scratch, not machine state. */
    std::vector<SlotOperands> _ops;

    // ---- run-ahead mode state ---------------------------------------
    bool _inRunahead = false;
    Cycle _raExitAt = 0;
    InstIdx _raResumePc = 0;
    std::map<Addr, std::uint8_t> _raStoreOverlay;

    /** Consecutive load-stall cycles in normal mode (entry trigger). */
    unsigned _stallStreak = 0;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_RUNAHEAD_RUNAHEAD_CPU_HH
