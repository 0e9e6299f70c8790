/**
 * @file
 * BasicBlock: a straight-line sequence of instructions ending in a
 * terminator.
 */
#ifndef IR_BASIC_BLOCK_H
#define IR_BASIC_BLOCK_H

#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.h"

namespace repro::ir {

class Function;

/**
 * A node of the control flow graph.
 *
 * Position and predecessor queries are answered from tables the
 * parent Function rebuilds lazily after a mutation invalidated them
 * (docs/ARCHITECTURE.md, "Cost of IR queries"): instruction ordinals
 * per block, block ordinals and predecessor lists per function.
 */
class BasicBlock
{
  public:
    BasicBlock(std::string name, Function *parent)
        : name_(std::move(name)), parent_(parent)
    {}

    BasicBlock(const BasicBlock &) = delete;
    BasicBlock &operator=(const BasicBlock &) = delete;

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }
    Function *parent() const { return parent_; }

    const std::vector<std::unique_ptr<Instruction>> &insts() const
    {
        return insts_;
    }
    bool empty() const { return insts_.empty(); }
    size_t size() const { return insts_.size(); }

    Instruction *front() const { return insts_.front().get(); }
    Instruction *
    terminator() const
    {
        if (insts_.empty() || !insts_.back()->isTerminator())
            return nullptr;
        return insts_.back().get();
    }

    /** Append an instruction, taking ownership. */
    Instruction *append(std::unique_ptr<Instruction> inst);

    /** Insert before position @p index. */
    Instruction *insert(size_t index, std::unique_ptr<Instruction> inst);

    /**
     * Index of @p inst in this block; -1 if @p inst is null, detached
     * or in another block. O(1) amortized; reads @p inst, so it must
     * be live.
     */
    int indexOf(const Instruction *inst) const;

    /** Detach and destroy @p inst. */
    void erase(Instruction *inst);

    /** Release @p inst without destroying it. */
    std::unique_ptr<Instruction> detach(Instruction *inst);

    /** Successor blocks: the terminator's targets (none without one). */
    const std::vector<BasicBlock *> &successors() const;

    /**
     * Blocks of the parent function whose successors include this
     * one, each once, in function layout order. O(1) amortized.
     */
    const std::vector<BasicBlock *> &predecessors() const;

  private:
    friend class Function;
    friend class Instruction;

    /** Mark the instruction ordinals stale from @p index on. */
    void invalidateOrdinals(size_t index) const;
    /** Mark the parent's predecessor lists stale. */
    void invalidateCFG() const;

    std::string name_;
    Function *parent_;
    std::vector<std::unique_ptr<Instruction>> insts_;
    /** Instruction ordinals are valid below this index. */
    mutable size_t ordinalsValid_ = 0;
    /** Position in the parent's block list, while its layout is valid. */
    mutable size_t ordinal_ = 0;
    /** This block's predecessors, while the parent's CFG is valid. */
    mutable std::vector<BasicBlock *> preds_;
};

} // namespace repro::ir

#endif // IR_BASIC_BLOCK_H
