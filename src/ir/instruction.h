/**
 * @file
 * Instruction class of the SSA IR.
 *
 * A single concrete class with an opcode discriminator keeps the
 * constraint solver simple: IDL atomics like "{x} is mul instruction"
 * become one enum comparison.
 */
#ifndef IR_INSTRUCTION_H
#define IR_INSTRUCTION_H

#include <string>
#include <vector>

#include "ir/value.h"

namespace repro::ir {

class BasicBlock;
class Function;

/** Every opcode the IR supports. Names follow LLVM. */
enum class Opcode
{
    // Integer arithmetic.
    Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr,
    // Floating point arithmetic.
    FAdd, FSub, FMul, FDiv,
    // Memory.
    Load, Store, GEP, Alloca,
    // Comparison and selection.
    ICmp, FCmp, Select,
    // Control flow.
    Br, Ret,
    // SSA merge.
    Phi,
    // Conversions.
    SExt, ZExt, Trunc, SIToFP, FPToSI, FPExt, FPTrunc,
    // Calls.
    Call,
};

/** Comparison predicates shared by icmp and fcmp. */
enum class CmpPred
{
    EQ, NE, LT, LE, GT, GE,
};

const char *opcodeName(Opcode op);
const char *cmpPredName(CmpPred pred, bool is_float);

/**
 * One SSA instruction.
 *
 * Operand edges maintain use lists on both sides. Control-flow targets
 * of branches and the incoming blocks of phis are held separately from
 * the operand list (blocks are not Values in this IR).
 */
class Instruction : public Value
{
  public:
    Instruction(Opcode op, Type *type, std::string name)
        : Value(ValueKind::Instruction, type, std::move(name)), op_(op)
    {}
    ~Instruction() override;

    Opcode opcode() const { return op_; }
    bool is(Opcode op) const { return op_ == op; }

    BasicBlock *parent() const { return parent_; }
    Function *function() const;

    // Operands -----------------------------------------------------------
    size_t numOperands() const { return operands_.size(); }
    Value *operand(size_t i) const { return operands_[i]; }
    const std::vector<Value *> &operands() const { return operands_; }
    void addOperand(Value *v);
    void setOperand(size_t i, Value *v);
    /** Drop all operand edges (used before erasing). */
    void dropOperands();

    // Branch targets -----------------------------------------------------
    const std::vector<BasicBlock *> &blockTargets() const
    {
        return blocks_;
    }
    /** Retargeting a placed terminator invalidates its function's
     *  predecessor lists. */
    void addBlockTarget(BasicBlock *bb);
    void setBlockTarget(size_t i, BasicBlock *bb);

    bool isTerminator() const { return op_ == Opcode::Br ||
                                       op_ == Opcode::Ret; }
    bool isConditionalBranch() const
    {
        return op_ == Opcode::Br && numOperands() == 1;
    }

    // Phi ----------------------------------------------------------------
    /** Incoming blocks, parallel to the operand list. */
    const std::vector<BasicBlock *> &incomingBlocks() const
    {
        return blocks_;
    }
    void addIncoming(Value *v, BasicBlock *bb);
    /** Incoming value for @p bb; null if absent. */
    Value *incomingFor(const BasicBlock *bb) const;
    /** Drop all incoming pairs of a phi (operands and blocks). */
    void
    clearIncoming()
    {
        dropOperands();
        blocks_.clear();
    }

    // Cmp ----------------------------------------------------------------
    CmpPred cmpPred() const { return pred_; }
    void setCmpPred(CmpPred pred) { pred_ = pred; }

    // Alloca / GEP -------------------------------------------------------
    /** Type allocated by alloca / stepped over by gep. */
    Type *accessType() const { return accessType_; }
    void setAccessType(Type *t) { accessType_ = t; }

    // Call ---------------------------------------------------------------
    Function *callee() const { return callee_; }
    void setCallee(Function *f) { callee_ = f; }

    std::string handle() const override;

    /**
     * Remove this instruction from its block and destroy it. All operand
     * use edges are dropped; the instruction must itself be unused.
     */
    void eraseFromParent();

  private:
    friend class BasicBlock;
    friend class Function;
    friend class BodyCloner;

    void setParent(BasicBlock *bb) { parent_ = bb; }

    Opcode op_;
    BasicBlock *parent_ = nullptr;
    /** Position in parent_, kept by BasicBlock (see indexOf). */
    size_t ordinal_ = 0;
    std::vector<Value *> operands_;
    std::vector<BasicBlock *> blocks_;
    CmpPred pred_ = CmpPred::EQ;
    Type *accessType_ = nullptr;
    Function *callee_ = nullptr;
};

} // namespace repro::ir

#endif // IR_INSTRUCTION_H
