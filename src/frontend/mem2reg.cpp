#include "frontend/mem2reg.h"

#include <unordered_map>
#include <vector>

#include "analysis/dominators.h"
#include "support/diagnostics.h"

namespace repro::frontend {

using analysis::DomTree;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

/** True if every use of @p alloca is a direct scalar load or store. */
bool
isPromotable(Instruction *alloca)
{
    if (alloca->accessType()->isArray())
        return false;
    for (Instruction *user : alloca->users()) {
        if (user->is(Opcode::Load))
            continue;
        if (user->is(Opcode::Store) && user->operand(1) == alloca &&
            user->operand(0) != alloca) {
            continue;
        }
        return false;
    }
    return true;
}

Value *
zeroFor(ir::Module &module, ir::Type *type)
{
    if (type->isFloatingPoint())
        return module.fpConst(type, 0.0);
    return module.intConst(type, 0);
}

/** Promotes one function's allocas. */
class Promoter
{
  public:
    explicit Promoter(Function *func)
        : func_(func), dom_(func, false),
          children_(func->blocks().size()),
          phis_(func->blocks().size())
    {
        // Dominator-tree children in layout order.
        for (const auto &bb : func->blocks()) {
            BasicBlock *d = dom_.idom(bb.get());
            if (d)
                children_[func->blockIndex(d)].push_back(bb.get());
        }
    }

    int
    run()
    {
        std::vector<Instruction *> allocas;
        for (const auto &bb : func_->blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->is(Opcode::Alloca) &&
                    isPromotable(inst.get())) {
                    slotOf_.emplace(inst.get(), allocas.size());
                    allocas.push_back(inst.get());
                }
            }
        }
        if (allocas.empty())
            return 0;

        std::vector<size_t> phiStamp(func_->blocks().size(), 0);
        for (size_t slot = 0; slot < allocas.size(); ++slot)
            placePhis(allocas[slot], slot, phiStamp);

        std::vector<Value *> current;
        for (Instruction *a : allocas) {
            current.push_back(
                zeroFor(*func_->parentModule(), a->accessType()));
        }
        rename(current);

        // Delete the dead stores, loads and allocas.
        toErase_.insert(toErase_.end(), allocas.begin(), allocas.end());
        func_->eraseInstructions(toErase_);
        return static_cast<int>(allocas.size());
    }

  private:
    /** A phi placed for the alloca in promotion slot @c slot. */
    struct PlacedPhi
    {
        Instruction *phi;
        size_t slot;
    };

    void
    placePhis(Instruction *alloca, size_t slot,
              std::vector<size_t> &phiStamp)
    {
        // Blocks containing a store to this alloca.
        std::vector<BasicBlock *> work;
        for (Instruction *user : alloca->users()) {
            if (user->is(Opcode::Store))
                work.push_back(user->parent());
        }
        // phiStamp[b] == slot + 1: block b has this alloca's phi.
        while (!work.empty()) {
            BasicBlock *bb = work.back();
            work.pop_back();
            for (BasicBlock *fr : dom_.frontier(bb)) {
                size_t b = static_cast<size_t>(func_->blockIndex(fr));
                if (phiStamp[b] == slot + 1)
                    continue;
                phiStamp[b] = slot + 1;
                auto phi = std::make_unique<Instruction>(
                    Opcode::Phi, alloca->accessType(),
                    func_->uniqueName(alloca->name() + ".phi"));
                Instruction *p = fr->insert(0, std::move(phi));
                phis_[b].push_back({p, slot});
                work.push_back(fr);
            }
        }
    }

    /** Promotion slot of the alloca @p addr names; npos if none. */
    size_t
    slotOf(const Value *addr) const
    {
        if (!addr->isInstruction())
            return npos;
        auto it = slotOf_.find(static_cast<const Instruction *>(addr));
        return it == slotOf_.end() ? npos : it->second;
    }

    /**
     * Rename over the dominator tree in preorder, children in layout
     * order. @p current holds each slot's reaching value; every change
     * is logged and undone when the walk leaves the block.
     */
    void
    rename(std::vector<Value *> &current)
    {
        std::vector<std::pair<size_t, Value *>> undo;
        auto set = [&](size_t slot, Value *v) {
            undo.emplace_back(slot, current[slot]);
            current[slot] = v;
        };
        struct Frame
        {
            BasicBlock *bb;
            size_t undoMark;
            size_t nextChild;
        };
        std::vector<Frame> stack;
        auto enter = [&](BasicBlock *bb) {
            stack.push_back({bb, undo.size(), 0});
            size_t b = static_cast<size_t>(func_->blockIndex(bb));
            // Phis placed in this block define new values first.
            for (const PlacedPhi &p : phis_[b])
                set(p.slot, p.phi);
            for (const auto &inst_ptr : bb->insts()) {
                Instruction *inst = inst_ptr.get();
                if (inst->is(Opcode::Load)) {
                    size_t slot = slotOf(inst->operand(0));
                    if (slot != npos) {
                        inst->replaceAllUsesWith(current[slot]);
                        toErase_.push_back(inst);
                    }
                } else if (inst->is(Opcode::Store)) {
                    size_t slot = slotOf(inst->operand(1));
                    if (slot != npos) {
                        set(slot, inst->operand(0));
                        toErase_.push_back(inst);
                    }
                }
            }
            // Feed phi nodes of successors, in creation order.
            for (BasicBlock *succ : bb->successors()) {
                size_t s = static_cast<size_t>(func_->blockIndex(succ));
                for (const PlacedPhi &p : phis_[s])
                    p.phi->addIncoming(current[p.slot], bb);
            }
        };

        enter(func_->entry());
        while (!stack.empty()) {
            Frame &top = stack.back();
            const auto &kids = children_[static_cast<size_t>(
                func_->blockIndex(top.bb))];
            if (top.nextChild < kids.size()) {
                enter(kids[top.nextChild++]);
                continue;
            }
            for (size_t k = undo.size(); k > top.undoMark; --k)
                current[undo[k - 1].first] = undo[k - 1].second;
            undo.resize(top.undoMark);
            stack.pop_back();
        }
    }

    static constexpr size_t npos = static_cast<size_t>(-1);

    Function *func_;
    DomTree dom_;
    /** Per block ordinal: dominator-tree children, placed phis. */
    std::vector<std::vector<BasicBlock *>> children_;
    std::vector<std::vector<PlacedPhi>> phis_;
    std::unordered_map<const Instruction *, size_t> slotOf_;
    std::vector<Instruction *> toErase_;
};

} // namespace

int
promoteAllocas(Function *func)
{
    if (func->isDeclaration())
        return 0;
    Promoter promoter(func);
    return promoter.run();
}

void
promoteModule(ir::Module &module)
{
    for (const auto &f : module.functions())
        promoteAllocas(f.get());
}

} // namespace repro::frontend
