/**
 * @file
 * The untimed functional reference machine: executes a program group
 * by group with exact EPIC semantics (register reads observe
 * pre-group state; memory operations execute in slot order). Every
 * timed model must finish with identical register and memory state —
 * the backbone of this repo's correctness testing.
 *
 * Execution is resumable: run() keeps its cursor and cumulative
 * statistics in members, so a caller can execute to a slot budget,
 * inspect the machine (the sampled-simulation checkpoint pass copies
 * the register file and memory at interval starts), and continue.
 */

#ifndef FF_CPU_FUNCTIONAL_FUNCTIONAL_CPU_HH
#define FF_CPU_FUNCTIONAL_FUNCTIONAL_CPU_HH

#include <cstdint>
#include <vector>

#include "cpu/core/functional_result.hh"
#include "cpu/exec.hh"
#include "cpu/regfile.hh"
#include "cpu/warm_history.hh"
#include "isa/program.hh"
#include "memory/sparse_memory.hh"

namespace ff
{
namespace cpu
{

/** Golden-model executor. */
class FunctionalCpu
{
  public:
    /** Outcome of functional execution (see cpu/core). */
    using Result = FunctionalResult;

    explicit FunctionalCpu(const isa::Program &prog);
    /** The model holds a reference: temporaries would dangle. */
    explicit FunctionalCpu(isa::Program &&) = delete;

    /**
     * Executes until HALT or the cumulative slot count reaches
     * @p max_insts (the budget counts total slots executed across
     * every run() call, at issue-group granularity — the last group
     * may overshoot the budget). Calling run() again continues from
     * the stopping point with accumulated statistics.
     * @return cumulative statistics of the execution so far
     */
    Result run(std::uint64_t max_insts = UINT64_MAX);

    /**
     * Attaches a warming-event recorder (or detaches with nullptr):
     * subsequent run() calls log every group fetch, data access and
     * branch outcome into @p warm for cache/predictor warming in the
     * sampled-simulation replay. Recording costs one bounded-ring
     * push per event; the null default costs one branch per group.
     */
    void setWarmHistory(WarmHistory *warm) { _warm = warm; }

    /** Leader of the next unexecuted issue group (the resume point). */
    InstIdx pc() const { return _pc; }

    const RegFile &regs() const { return _regs; }
    const memory::SparseMemory &mem() const { return _mem; }
    memory::SparseMemory &mem() { return _mem; }

  private:
    const isa::Program &_prog;
    RegFile _regs;
    memory::SparseMemory _mem;
    InstIdx _pc = 0;  ///< next group leader
    Result _res;      ///< cumulative across run() calls
    WarmHistory *_warm = nullptr; ///< optional warming recorder
    /** Group operand buffer, hoisted out of the per-group loop so the
     *  hot path never allocates. */
    std::vector<SlotOperands> _ops;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_FUNCTIONAL_FUNCTIONAL_CPU_HH
