#include "ir/basic_block.h"

#include <algorithm>

#include "ir/function.h"
#include "support/diagnostics.h"

namespace repro::ir {

void
BasicBlock::invalidateOrdinals(size_t index) const
{
    ordinalsValid_ = std::min(ordinalsValid_, index);
}

void
BasicBlock::invalidateCFG() const
{
    if (parent_)
        parent_->cfgValid_ = false;
}

Instruction *
BasicBlock::append(std::unique_ptr<Instruction> inst)
{
    return insert(insts_.size(), std::move(inst));
}

Instruction *
BasicBlock::insert(size_t index, std::unique_ptr<Instruction> inst)
{
    reproAssert(index <= insts_.size(), "insert: index out of range");
    // A new last instruction may add or hide the terminator.
    if (index == insts_.size() || inst->isTerminator())
        invalidateCFG();
    inst->setParent(this);
    inst->ordinal_ = index;
    if (ordinalsValid_ == index && index == insts_.size())
        ++ordinalsValid_;
    else
        invalidateOrdinals(index);
    auto it = insts_.begin() + static_cast<ptrdiff_t>(index);
    it = insts_.insert(it, std::move(inst));
    return it->get();
}

int
BasicBlock::indexOf(const Instruction *inst) const
{
    if (!inst || inst->parent() != this)
        return -1;
    size_t at = inst->ordinal_;
    if (at < insts_.size() && insts_[at].get() == inst)
        return static_cast<int>(at);
    // Stale: renumber the suffix past the last valid ordinal.
    for (size_t i = ordinalsValid_; i < insts_.size(); ++i)
        insts_[i]->ordinal_ = i;
    ordinalsValid_ = insts_.size();
    return static_cast<int>(inst->ordinal_);
}

void
BasicBlock::erase(Instruction *inst)
{
    reproAssert(indexOf(inst) >= 0, "erase: instruction not in block");
    reproAssert(inst->unused(), "erase: instruction still has users");
    detach(inst);
}

std::unique_ptr<Instruction>
BasicBlock::detach(Instruction *inst)
{
    int idx = indexOf(inst);
    reproAssert(idx >= 0, "detach: instruction not in block");
    size_t at = static_cast<size_t>(idx);
    if (at + 1 == insts_.size() || inst->isTerminator())
        invalidateCFG();
    invalidateOrdinals(at);
    std::unique_ptr<Instruction> out = std::move(insts_[at]);
    insts_.erase(insts_.begin() + idx);
    out->setParent(nullptr);
    return out;
}

const std::vector<BasicBlock *> &
BasicBlock::successors() const
{
    static const std::vector<BasicBlock *> none;
    Instruction *term = terminator();
    return term ? term->blockTargets() : none;
}

const std::vector<BasicBlock *> &
BasicBlock::predecessors() const
{
    parent_->ensureCFG();
    return preds_;
}

} // namespace repro::ir
