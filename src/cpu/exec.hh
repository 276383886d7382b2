/**
 * @file
 * Pure functional evaluation of one ffvm instruction given its
 * operand values. Every execution engine (functional reference,
 * baseline pipe, A-pipe, B-pipe, run-ahead) funnels through this so
 * instruction semantics exist in exactly one place; the in-order
 * engines also share its group operand read.
 */

#ifndef FF_CPU_EXEC_HH
#define FF_CPU_EXEC_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "cpu/regfile.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

namespace ff
{
namespace cpu
{

/** Result of evaluating an instruction's non-memory semantics. */
struct EvalResult
{
    /** Did the qualifying predicate allow execution? */
    bool predTrue = false;

    bool writesDst = false;
    bool writesDst2 = false;
    RegVal dstVal = 0;
    RegVal dst2Val = 0;

    /** Memory access request (loads leave dstVal for the caller). */
    bool isMemAccess = false;
    Addr addr = 0;
    unsigned size = 0;
    RegVal storeVal = 0;

    /** Branch outcome (taken iff predTrue for ffvm branches). */
    bool isBranch = false;
    bool taken = false;
};

/**
 * Evaluates @p in with operand values @p qpred / @p s1 / @p s2.
 * @p s2 must already be the immediate when src2IsImm is set (callers
 * use operandSrc2()). For loads the caller performs the memory read
 * and applies loadExtend(); evaluate() only computes the address.
 */
EvalResult evaluate(const isa::Instruction &in, bool qpred, RegVal s1,
                    RegVal s2);

/** Returns the src2 operand value: the immediate or @p reg_val. */
inline RegVal
operandSrc2(const isa::Instruction &in, RegVal reg_val)
{
    return in.src2IsImm ? static_cast<RegVal>(in.imm) : reg_val;
}

/** Operand values of one slot, as evaluate() takes them. */
struct SlotOperands
{
    bool qpred = false;
    RegVal s1 = 0;
    RegVal s2 = 0;
};

/**
 * Reads the operands of every slot of the issue group [@p leader,
 * @p end) from @p regs into @p ops (slot i at ops[i - leader]) before
 * any slot writes: EPIC group semantics. @p ops is a caller-owned
 * buffer reused across groups, so the per-group path never allocates.
 * Inline: it runs once per issued group in every model's hot loop.
 */
inline void
readGroupOperands(const isa::Program &prog, InstIdx leader, InstIdx end,
                  const RegFile &regs, std::vector<SlotOperands> &ops)
{
    ops.resize(end - leader);
    for (InstIdx i = leader; i < end; ++i) {
        const isa::Instruction &in = prog.inst(i);
        SlotOperands &o = ops[i - leader];
        o.qpred = regs.readPred(in.qpred);
        o.s1 = in.src1.valid() ? regs.read(in.src1) : 0;
        o.s2 = operandSrc2(in,
                           in.src2.valid() ? regs.read(in.src2) : 0);
    }
}

/** Applies a load's width/sign treatment to raw little-endian bytes. */
RegVal loadExtend(isa::Opcode op, std::uint64_t raw);

/** Bytes accessed by a memory opcode. */
unsigned memSize(isa::Opcode op);

} // namespace cpu
} // namespace ff

#endif // FF_CPU_EXEC_HH
