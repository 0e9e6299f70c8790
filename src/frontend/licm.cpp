#include "frontend/licm.h"

#include <algorithm>
#include <set>
#include <vector>

#include "analysis/function_analyses.h"
#include "frontend/passes.h"
#include "support/diagnostics.h"

namespace repro::frontend {

using analysis::DomTree;
using analysis::Loop;
using analysis::LoopInfo;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

/** Pure, non-trapping instructions that may always be hoisted. */
bool
isSpeculatable(const Instruction *inst)
{
    switch (inst->opcode()) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::AShr:
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::GEP:
      case Opcode::ICmp:
      case Opcode::FCmp:
      case Opcode::Select:
      case Opcode::SExt:
      case Opcode::ZExt:
      case Opcode::Trunc:
      case Opcode::SIToFP:
      case Opcode::FPToSI:
      case Opcode::FPExt:
      case Opcode::FPTrunc:
        return true;
      default:
        return false;
    }
}

/**
 * The loop's blocks in function layout order. Loop::blocks is a
 * std::set of pointers: iterating it directly makes the hoist /
 * promotion order depend on heap addresses, so two compiles of the
 * same source in one process could emit differently-ordered (if
 * semantically equal) IR — which breaks every byte-identical
 * differential comparison downstream. Sorted by block ordinal, so
 * the cost follows the loop's size, not the function's.
 */
std::vector<BasicBlock *>
blocksInLayoutOrder(const Function *func, const Loop &loop)
{
    std::vector<std::pair<int, BasicBlock *>> ordered;
    ordered.reserve(loop.blocks.size());
    for (BasicBlock *bb : loop.blocks)
        ordered.emplace_back(func->blockIndex(bb), bb);
    std::sort(ordered.begin(), ordered.end());
    std::vector<BasicBlock *> out;
    out.reserve(ordered.size());
    for (const auto &entry : ordered)
        out.push_back(entry.second);
    return out;
}

/** All operands defined outside @p loop? */
bool
operandsInvariant(const Instruction *inst, const Loop &loop)
{
    for (const Value *op : inst->operands()) {
        if (const auto *oi = dynamic_cast<const Instruction *>(op)) {
            if (loop.contains(oi))
                return false;
        }
    }
    return true;
}

bool
loopHasSideEffects(const Loop &loop)
{
    for (BasicBlock *bb : loop.blocks) {
        for (const auto &inst : bb->insts()) {
            if (inst->is(Opcode::Store) || inst->is(Opcode::Call))
                return true;
        }
    }
    return false;
}

/** One LICM sweep over one loop. Returns hoisted count. */
int
hoistInLoop(Function *func, const Loop &loop, const DomTree &dom)
{
    BasicBlock *preheader = loop.preheader();
    if (!preheader || !preheader->terminator())
        return 0;
    bool pure_loop = !loopHasSideEffects(loop);
    BasicBlock *latch = loop.latch;

    int hoisted = 0;
    // Hoisting moves instructions, never blocks: one layout pass.
    const std::vector<BasicBlock *> body =
        blocksInLayoutOrder(func, loop);
    bool changed = true;
    while (changed) {
        changed = false;
        for (BasicBlock *bb : body) {
            for (size_t i = 0; i < bb->size(); ++i) {
                Instruction *inst = bb->insts()[i].get();
                bool hoistable = false;
                if (isSpeculatable(inst)) {
                    hoistable = operandsInvariant(inst, loop);
                } else if (inst->is(Opcode::Load) && pure_loop) {
                    // Loads hoist only from blocks that execute on
                    // every iteration (no speculative faults).
                    hoistable =
                        operandsInvariant(inst, loop) && latch &&
                        dom.dominates(bb, latch);
                }
                if (!hoistable)
                    continue;
                auto owned = bb->detach(inst);
                preheader->insert(preheader->size() - 1,
                                  std::move(owned));
                ++hoisted;
                changed = true;
                --i;
            }
        }
    }
    return hoisted;
}

/** Single loop-exit block if the loop has exactly one; else null. */
BasicBlock *
uniqueExitBlock(const Loop &loop)
{
    BasicBlock *exit = nullptr;
    for (BasicBlock *bb : loop.blocks) {
        for (BasicBlock *succ : bb->successors()) {
            if (loop.contains(succ))
                continue;
            if (exit && exit != succ)
                return nullptr;
            exit = succ;
        }
    }
    return exit;
}

/** Can the two access bases be proven distinct? */
bool
provablyDistinct(const Value *a, const Value *b)
{
    if (a == b)
        return false;
    auto is_alloca = [](const Value *v) {
        return v->isInstruction() &&
               static_cast<const Instruction *>(v)->is(Opcode::Alloca);
    };
    if (a->isGlobal() && b->isGlobal())
        return true;
    if (is_alloca(a) && is_alloca(b))
        return true;
    if (is_alloca(a) || is_alloca(b))
        return true; // local memory cannot alias external pointers
    return false;    // two arguments / unknown: may alias
}

int
promoteInLoop(Function *func, const Loop &loop, const DomTree &dom)
{
    BasicBlock *preheader = loop.preheader();
    BasicBlock *exit = uniqueExitBlock(loop);
    BasicBlock *header = loop.header;
    BasicBlock *latch = loop.latch;
    if (!preheader || !exit || !latch || !preheader->terminator())
        return 0;
    // The exit must be reached from the header only (canonical
    // rotated-less loop): its in-loop predecessors == {header}.
    for (BasicBlock *p : exit->predecessors()) {
        if (loop.contains(p) && p != header)
            return 0;
    }

    // Gather memory operations of the loop.
    struct Access
    {
        Instruction *inst;
        Value *address;
        bool isStore;
    };
    std::vector<Access> accesses;
    for (BasicBlock *bb : blocksInLayoutOrder(func, loop)) {
        for (const auto &inst : bb->insts()) {
            if (inst->is(Opcode::Call))
                return 0; // calls may touch anything
            if (inst->is(Opcode::Load)) {
                accesses.push_back(
                    {inst.get(), inst->operand(0), false});
            } else if (inst->is(Opcode::Store)) {
                accesses.push_back(
                    {inst.get(), inst->operand(1), true});
            }
        }
    }

    int promoted = 0;
    // Candidate stores: invariant address, single store to it.
    for (const Access &candidate : accesses) {
        if (!candidate.isStore)
            continue;
        Value *addr = candidate.address;
        if (const auto *ai = dynamic_cast<Instruction *>(addr)) {
            if (loop.contains(ai))
                continue; // address not invariant
        }
        const Value *base = analysis::basePointerOf(addr);

        bool ok = true;
        std::vector<Instruction *> loads_of_addr;
        for (const Access &other : accesses) {
            if (other.inst == candidate.inst)
                continue;
            if (other.address == addr) {
                if (other.isStore) {
                    ok = false; // several stores: not a single acc
                    break;
                }
                loads_of_addr.push_back(other.inst);
                continue;
            }
            const Value *obase = analysis::basePointerOf(other.address);
            if (!provablyDistinct(base, obase)) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;
        // Every load of the accumulator must happen before the store
        // in each iteration, and the store must execute on every
        // iteration.
        if (!dom.dominates(candidate.inst->parent(), latch))
            continue;
        for (Instruction *load : loads_of_addr) {
            if (!dom.dominates(load, candidate.inst)) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;
        Value *stored = candidate.inst->operand(0);
        if (const auto *si = dynamic_cast<Instruction *>(stored)) {
            if (!dom.dominates(si, latch->terminator()))
                continue;
        }

        // Perform the promotion.
        ir::Module &module = *func->parentModule();
        ir::Type *elem = addr->type()->element();
        // 1. Initial load in the preheader.
        auto init = std::make_unique<Instruction>(
            Opcode::Load, elem, func->uniqueName("promoted.init"));
        init->addOperand(addr);
        Instruction *init_load = preheader->insert(
            preheader->size() - 1, std::move(init));
        // 2. Phi in the header.
        auto phi = std::make_unique<Instruction>(
            Opcode::Phi, elem, func->uniqueName("promoted.phi"));
        Instruction *acc = header->insert(0, std::move(phi));
        acc->addIncoming(init_load, preheader);
        acc->addIncoming(stored, latch);
        // 3. Replace in-loop loads.
        for (Instruction *load : loads_of_addr) {
            load->replaceAllUsesWith(acc);
            load->eraseFromParent();
        }
        // 4. Store the final value at the loop exit.
        auto fin = std::make_unique<Instruction>(
            Opcode::Store, module.types().voidTy(), "");
        fin->addOperand(acc);
        fin->addOperand(addr);
        size_t pos = 0;
        while (pos < exit->size() &&
               exit->insts()[pos]->is(Opcode::Phi)) {
            ++pos;
        }
        exit->insert(pos, std::move(fin));
        // 5. Remove the original store.
        candidate.inst->eraseFromParent();
        ++promoted;
        // Analyses stale after mutation: caller re-runs.
        return promoted;
    }
    return promoted;
}

} // namespace

int
hoistLoopInvariants(Function *func)
{
    if (func->isDeclaration())
        return 0;
    // Hoisting moves instructions, never blocks, so the block-level
    // analyses stay valid across sweeps.
    analysis::DomTree dom(func, false);
    analysis::LoopInfo loops(func, dom);
    int total = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &loop : loops.loops()) {
            int h = hoistInLoop(func, *loop, dom);
            if (h > 0) {
                total += h;
                changed = true;
            }
        }
    }
    return total;
}

int
promoteMemoryAccumulators(Function *func)
{
    if (func->isDeclaration())
        return 0;
    int total = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        analysis::DomTree dom(func, false);
        analysis::LoopInfo loops(func, dom);
        // Innermost loops first.
        std::vector<Loop *> order;
        for (const auto &loop : loops.loops())
            order.push_back(loop.get());
        // stable: ties keep LoopInfo's deterministic discovery order.
        std::stable_sort(
            order.begin(), order.end(),
            [](Loop *a, Loop *b) { return a->depth > b->depth; });
        for (Loop *loop : order) {
            if (promoteInLoop(func, *loop, dom) > 0) {
                ++total;
                changed = true;
                break; // analyses stale; restart
            }
        }
    }
    return total;
}

void
optimizeFunction(ir::Function *func)
{
    if (func->isDeclaration())
        return;
    hoistLoopInvariants(func);
    promoteMemoryAccumulators(func);
    hoistLoopInvariants(func);
    aggressiveDCE(func);
}

} // namespace repro::frontend
