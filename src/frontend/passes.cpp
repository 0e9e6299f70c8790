#include "frontend/passes.h"

#include <deque>
#include <vector>

namespace repro::frontend {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;

int
removeUnreachableBlocks(Function *func)
{
    if (func->isDeclaration())
        return 0;
    // By block ordinal; the blocks do not move until the deletions.
    std::vector<char> reachable(func->blocks().size(), 0);
    auto isReachable = [&](const BasicBlock *bb) {
        return reachable[static_cast<size_t>(func->blockIndex(bb))] != 0;
    };
    std::deque<BasicBlock *> queue;
    queue.push_back(func->entry());
    reachable[0] = 1;
    while (!queue.empty()) {
        BasicBlock *bb = queue.front();
        queue.pop_front();
        for (BasicBlock *s : bb->successors()) {
            if (!isReachable(s)) {
                reachable[static_cast<size_t>(func->blockIndex(s))] = 1;
                queue.push_back(s);
            }
        }
    }

    std::vector<BasicBlock *> dead;
    for (const auto &bb : func->blocks()) {
        if (!isReachable(bb.get()))
            dead.push_back(bb.get());
    }
    if (dead.empty())
        return 0;

    // Remove phi incomings that reference dead predecessors.
    for (const auto &bb : func->blocks()) {
        if (!isReachable(bb.get()))
            continue;
        for (const auto &inst : bb->insts()) {
            if (!inst->is(Opcode::Phi))
                continue;
            Instruction *phi = inst.get();
            bool any_dead = false;
            std::vector<std::pair<ir::Value *, BasicBlock *>> keep;
            for (size_t k = 0; k < phi->numOperands(); ++k) {
                BasicBlock *in = phi->incomingBlocks()[k];
                if (isReachable(in))
                    keep.emplace_back(phi->operand(k), in);
                else
                    any_dead = true;
            }
            if (any_dead) {
                phi->clearIncoming();
                for (auto &[v, b] : keep)
                    phi->addIncoming(v, b);
            }
        }
    }

    // Drop operand edges inside dead blocks, then delete the blocks,
    // last first so every erasure finds its block's ordinal current.
    for (BasicBlock *bb : dead) {
        for (const auto &inst : bb->insts())
            inst->dropOperands();
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
        BasicBlock *bb = *it;
        // Instructions in dead blocks may still formally "use" each
        // other; operand edges were dropped above so destruction is
        // safe even with users tracked.
        while (!bb->empty())
            bb->detach(bb->insts().back().get());
        func->eraseBlock(bb);
    }
    return static_cast<int>(dead.size());
}

int
aggressiveDCE(Function *func)
{
    if (func->isDeclaration())
        return 0;
    // live[b][i]: instruction i of block b is live.
    std::vector<std::vector<char>> live;
    for (const auto &bb : func->blocks())
        live.emplace_back(bb->size(), 0);
    std::deque<Instruction *> queue;

    auto mark = [&](ir::Value *v) {
        if (!v->isInstruction())
            return;
        auto *inst = static_cast<Instruction *>(v);
        if (inst->function() != func)
            return;
        char &flag =
            live[static_cast<size_t>(func->blockIndex(inst->parent()))]
                [static_cast<size_t>(inst->parent()->indexOf(inst))];
        if (!flag) {
            flag = 1;
            queue.push_back(inst);
        }
    };

    for (const auto &bb : func->blocks()) {
        for (const auto &inst : bb->insts()) {
            bool root = inst->isTerminator() ||
                        inst->is(Opcode::Store) ||
                        inst->is(Opcode::Call);
            if (root)
                mark(inst.get());
        }
    }
    while (!queue.empty()) {
        Instruction *inst = queue.front();
        queue.pop_front();
        for (ir::Value *op : inst->operands())
            mark(op);
    }

    std::vector<Instruction *> dead;
    for (size_t b = 0; b < live.size(); ++b) {
        const auto &insts = func->blocks()[b]->insts();
        for (size_t i = 0; i < insts.size(); ++i) {
            if (!live[b][i])
                dead.push_back(insts[i].get());
        }
    }
    func->eraseInstructions(dead);
    return static_cast<int>(dead.size());
}

} // namespace repro::frontend
