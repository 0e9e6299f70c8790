/**
 * @file
 * Dominator and post-dominator trees (Cooper-Harvey-Kennedy iterative
 * algorithm) with instruction-granularity queries.
 *
 * IDL evaluates control flow "on the granularity of instructions"
 * (section 3 of the paper); block-level trees are refined with
 * intra-block instruction order.
 */
#ifndef ANALYSIS_DOMINATORS_H
#define ANALYSIS_DOMINATORS_H

#include <vector>

#include "ir/function.h"

namespace repro::analysis {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;

/**
 * A dominator tree over the CFG of one function. With @p post_dom set,
 * the tree is computed on the reversed CFG (a virtual exit node joins
 * every returning block), yielding post-dominance.
 *
 * Nodes are the function's blocks by ordinal (Function::blockIndex).
 * Block dominance is O(1) from DFS in/out numbers of the tree, and
 * same-block instruction dominance compares instruction ordinals, so
 * the tree stays valid while instructions move between blocks; adding
 * or removing blocks or edges stales it.
 */
class DomTree
{
  public:
    DomTree(Function *func, bool post_dom);

    /** Immediate dominator block; null for the root. */
    BasicBlock *idom(const BasicBlock *bb) const;

    /** Block-level (post-)dominance, reflexive. */
    bool dominates(const BasicBlock *a, const BasicBlock *b) const;

    /** Instruction-level (post-)dominance, reflexive. */
    bool dominates(const Instruction *a, const Instruction *b) const;

    /** Non-reflexive variant. */
    bool strictlyDominates(const Instruction *a,
                           const Instruction *b) const;

    /**
     * Dominance frontier of @p bb (used by mem2reg). The frontiers
     * are built on the first call.
     */
    const std::vector<BasicBlock *> &frontier(const BasicBlock *bb) const;

    Function *function() const { return func_; }

  private:
    int indexOf(const BasicBlock *bb) const;
    void build();
    void buildFrontiers() const;

    Function *func_;
    bool postDom_;
    // Node 0..N-1 are blocks in function order; node N is the virtual
    // root used for post-dominance when several blocks return.
    std::vector<const BasicBlock *> nodes_;
    std::vector<int> idom_;
    std::vector<std::vector<int>> preds_;
    /** Preorder entry / exit numbers in the tree; -1 off the tree. */
    std::vector<int> in_, out_;
    mutable std::vector<std::vector<BasicBlock *>> frontiers_;
    mutable bool haveFrontiers_ = false;
    int root_ = 0;
};

} // namespace repro::analysis

#endif // ANALYSIS_DOMINATORS_H
