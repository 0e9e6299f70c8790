/**
 * @file
 * Bundle of per-function analyses shared by the constraint solver, the
 * baseline detectors and the transformation phase.
 */
#ifndef ANALYSIS_FUNCTION_ANALYSES_H
#define ANALYSIS_FUNCTION_ANALYSES_H

#include <memory>

#include "analysis/candidate_index.h"
#include "analysis/cfg.h"
#include "analysis/dominators.h"
#include "analysis/loops.h"

namespace repro::analysis {

/** Lazily built analyses for one function. */
class FunctionAnalyses
{
  public:
    explicit FunctionAnalyses(Function *func) : func_(func) {}

    Function *function() const { return func_; }

    const DomTree &
    domTree()
    {
        if (!dom_)
            dom_ = std::make_unique<DomTree>(func_, false);
        return *dom_;
    }

    const DomTree &
    postDomTree()
    {
        if (!postDom_)
            postDom_ = std::make_unique<DomTree>(func_, true);
        return *postDom_;
    }

    const InstCFG &
    cfg()
    {
        if (!cfg_)
            cfg_ = std::make_unique<InstCFG>(func_);
        return *cfg_;
    }

    const LoopInfo &
    loopInfo()
    {
        if (!loops_)
            loops_ = std::make_unique<LoopInfo>(func_, domTree());
        return *loops_;
    }

    /**
     * The solver's candidate-generation indices (universe, opcode and
     * constant buckets, operand-edge adjacency). Built once per
     * function and shared by every idiom solved against it.
     */
    const CandidateIndex &
    candidateIndex()
    {
        if (!candidates_)
            candidates_ = std::make_unique<CandidateIndex>(func_);
        return *candidates_;
    }

    /**
     * Control dependence edge: @p branch is a conditional branch and
     * the execution of @p inst depends on its outcome (classic
     * post-dominance criterion).
     */
    bool hasControlDependenceEdge(const Instruction *branch,
                                  const Instruction *inst);

    /**
     * Conservative memory dependence edge between two memory accesses:
     * both touch memory and we cannot prove they use distinct base
     * pointers.
     */
    bool hasMemoryDependenceEdge(const Instruction *a,
                                 const Instruction *b);

  private:
    Function *func_;
    std::unique_ptr<DomTree> dom_;
    std::unique_ptr<DomTree> postDom_;
    std::unique_ptr<InstCFG> cfg_;
    std::unique_ptr<LoopInfo> loops_;
    std::unique_ptr<CandidateIndex> candidates_;
};

/**
 * Walk through GEPs and casts to the underlying base pointer of a
 * memory address (argument, global, alloca or unknown value).
 */
const Value *basePointerOf(const Value *addr);

} // namespace repro::analysis

#endif // ANALYSIS_FUNCTION_ANALYSES_H
