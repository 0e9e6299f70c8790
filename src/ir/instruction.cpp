#include "ir/instruction.h"

#include "ir/basic_block.h"
#include "ir/function.h"
#include "support/diagnostics.h"

namespace repro::ir {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::SDiv: return "sdiv";
      case Opcode::SRem: return "srem";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::AShr: return "ashr";
      case Opcode::FAdd: return "fadd";
      case Opcode::FSub: return "fsub";
      case Opcode::FMul: return "fmul";
      case Opcode::FDiv: return "fdiv";
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::GEP: return "getelementptr";
      case Opcode::Alloca: return "alloca";
      case Opcode::ICmp: return "icmp";
      case Opcode::FCmp: return "fcmp";
      case Opcode::Select: return "select";
      case Opcode::Br: return "br";
      case Opcode::Ret: return "ret";
      case Opcode::Phi: return "phi";
      case Opcode::SExt: return "sext";
      case Opcode::ZExt: return "zext";
      case Opcode::Trunc: return "trunc";
      case Opcode::SIToFP: return "sitofp";
      case Opcode::FPToSI: return "fptosi";
      case Opcode::FPExt: return "fpext";
      case Opcode::FPTrunc: return "fptrunc";
      case Opcode::Call: return "call";
    }
    return "<bad opcode>";
}

const char *
cmpPredName(CmpPred pred, bool is_float)
{
    if (is_float) {
        switch (pred) {
          case CmpPred::EQ: return "oeq";
          case CmpPred::NE: return "one";
          case CmpPred::LT: return "olt";
          case CmpPred::LE: return "ole";
          case CmpPred::GT: return "ogt";
          case CmpPred::GE: return "oge";
        }
    } else {
        switch (pred) {
          case CmpPred::EQ: return "eq";
          case CmpPred::NE: return "ne";
          case CmpPred::LT: return "slt";
          case CmpPred::LE: return "sle";
          case CmpPred::GT: return "sgt";
          case CmpPred::GE: return "sge";
        }
    }
    return "<bad pred>";
}

Instruction::~Instruction()
{
    dropOperands();
}

Function *
Instruction::function() const
{
    return parent_ ? parent_->parent() : nullptr;
}

void
Instruction::addOperand(Value *v)
{
    reproAssert(v != nullptr, "addOperand(null)");
    operands_.push_back(v);
    v->addUser(this);
}

void
Instruction::setOperand(size_t i, Value *v)
{
    reproAssert(i < operands_.size(), "setOperand: index out of range");
    reproAssert(v != nullptr, "setOperand(null)");
    operands_[i]->removeUser(this);
    operands_[i] = v;
    v->addUser(this);
}

void
Instruction::dropOperands()
{
    for (Value *v : operands_)
        v->removeUser(this);
    operands_.clear();
}

void
Instruction::addBlockTarget(BasicBlock *bb)
{
    if (parent_)
        parent_->invalidateCFG();
    blocks_.push_back(bb);
}

void
Instruction::setBlockTarget(size_t i, BasicBlock *bb)
{
    if (parent_)
        parent_->invalidateCFG();
    blocks_[i] = bb;
}

void
Instruction::addIncoming(Value *v, BasicBlock *bb)
{
    reproAssert(op_ == Opcode::Phi, "addIncoming on non-phi");
    addOperand(v);
    blocks_.push_back(bb);
}

Value *
Instruction::incomingFor(const BasicBlock *bb) const
{
    for (size_t i = 0; i < blocks_.size(); ++i) {
        if (blocks_[i] == bb)
            return operands_[i];
    }
    return nullptr;
}

std::string
Instruction::handle() const
{
    return Value::handle();
}

void
Instruction::eraseFromParent()
{
    reproAssert(parent_ != nullptr, "eraseFromParent: detached");
    parent_->erase(this);
}

} // namespace repro::ir
