#include "ir/clone.h"

#include <unordered_map>

#include "support/diagnostics.h"

namespace repro::ir {

/** One cloneFunctionBody call; a friend of the IR classes. */
class BodyCloner
{
  public:
    BodyCloner(const Function &src, Function &dst)
        : src_(src), dst_(dst), module_(*dst.parentModule())
    {}

    void
    run()
    {
        reproAssert(dst_.isDeclaration() &&
                        dst_.functionType() ==
                            mapType(src_.functionType()),
                    "cloneFunctionBody: destination has a body or "
                    "another type");
        // Resolve everything outside src's body before building
        // anything: a half-linked copy could not be destroyed.
        for (const auto &bb : src_.blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->callee())
                    mapValue(inst->callee());
                for (Value *op : inst->operands()) {
                    if (op->isArgument()) {
                        reproAssert(static_cast<Argument *>(op)->parent() ==
                                        &src_,
                                    "cloneFunctionBody: foreign argument");
                    } else if (op->isInstruction()) {
                        reproAssert(static_cast<Instruction *>(op)
                                            ->function() == &src_,
                                    "cloneFunctionBody: foreign "
                                    "instruction");
                    } else {
                        mapValue(op);
                    }
                }
            }
        }
        for (const auto &bb : src_.blocks())
            blocks_.push_back(dst_.createBlock(bb->name()));

        // Every instruction before any operand: phis use values
        // defined further down. A copy sits at its original's block
        // and instruction ordinals.
        for (size_t b = 0; b < blocks_.size(); ++b) {
            for (const auto &inst : src_.blocks()[b]->insts()) {
                auto copy = std::make_unique<Instruction>(
                    inst->opcode(), mapType(inst->type()), inst->name());
                copy->setCmpPred(inst->cmpPred());
                copy->setAccessType(mapType(inst->accessType()));
                if (inst->callee()) {
                    copy->setCallee(
                        static_cast<Function *>(mapValue(inst->callee())));
                }
                for (BasicBlock *target : inst->blockTargets())
                    copy->addBlockTarget(
                        blocks_.at(src_.blockIndex(target)));
                blocks_[b]->append(std::move(copy));
            }
        }
        for (const auto &bb : src_.blocks()) {
            for (const auto &inst : bb->insts()) {
                Instruction *copy = copyOf(inst.get());
                copy->operands_.reserve(inst->numOperands());
                for (Value *op : inst->operands())
                    copy->operands_.push_back(mapValue(op));
            }
        }

        // Use lists in src's order, not in operand order, so the
        // solver enumerates the copy's users as it did src's. Shared
        // values (constants, globals) also have users in other
        // functions; ours go after those, in the relative order src
        // gave them.
        auto copyUsers = [&](const Value *from, Value *to) {
            for (Instruction *user : from->users()) {
                if (user->function() == &src_)
                    to->users_.push_back(copyOf(user));
            }
        };
        for (size_t i = 0; i < src_.numArgs(); ++i)
            copyUsers(src_.arg(i), dst_.arg(i));
        for (const auto &bb : src_.blocks()) {
            for (const auto &inst : bb->insts())
                copyUsers(inst.get(), copyOf(inst.get()));
        }
        for (const auto &[from, to] : values_)
            copyUsers(from, to);
        dst_.nameCounter_ = src_.nameCounter_;
    }

  private:
    /** The copy of src's instruction @p inst. */
    Instruction *
    copyOf(const Instruction *inst) const
    {
        const BasicBlock *bb = inst->parent();
        return blocks_.at(src_.blockIndex(bb))
            ->insts()
            .at(bb->indexOf(inst))
            .get();
    }

    Type *
    mapType(Type *t)
    {
        if (!t)
            return nullptr;
        auto it = types_.find(t);
        if (it != types_.end())
            return it->second;
        TypeContext &ctx = module_.types();
        Type *out = nullptr;
        switch (t->kind()) {
          case Type::Kind::Void: out = ctx.voidTy(); break;
          case Type::Kind::I1: out = ctx.i1Ty(); break;
          case Type::Kind::I32: out = ctx.i32Ty(); break;
          case Type::Kind::I64: out = ctx.i64Ty(); break;
          case Type::Kind::Float: out = ctx.floatTy(); break;
          case Type::Kind::Double: out = ctx.doubleTy(); break;
          case Type::Kind::Pointer:
            out = ctx.pointerTo(mapType(t->element()));
            break;
          case Type::Kind::Array:
            out = ctx.arrayOf(mapType(t->element()), t->arraySize());
            break;
          case Type::Kind::Function: {
            std::vector<Type *> params;
            for (Type *p : t->params())
                params.push_back(mapType(p));
            out = ctx.functionTy(mapType(t->returnType()),
                                 std::move(params));
            break;
          }
        }
        types_.emplace(t, out);
        return out;
    }

    /** Counterpart of an operand: src's own values by position,
     *  anything else through values_. */
    Value *
    mapValue(Value *v)
    {
        if (v->isArgument())
            return dst_.arg(static_cast<Argument *>(v)->index());
        if (v->isInstruction())
            return copyOf(static_cast<Instruction *>(v));
        auto it = values_.find(v);
        if (it != values_.end())
            return it->second;
        Value *out = nullptr;
        switch (v->kind()) {
          case ValueKind::Constant: {
            auto *c = static_cast<Constant *>(v);
            out = c->isFP()
                      ? module_.fpConst(mapType(c->type()), c->fpValue())
                      : module_.intConst(mapType(c->type()),
                                         c->intValue());
            break;
          }
          case ValueKind::GlobalVariable:
            out = module_.globalByName(v->name());
            break;
          case ValueKind::FunctionRef:
            out = module_.functionByName(v->name());
            break;
          default:
            break;
        }
        reproAssert(out && out->type() == mapType(v->type()),
                    "cloneFunctionBody: operand without a counterpart "
                    "of the same type in the destination module");
        values_.emplace(v, out);
        return out;
    }

    const Function &src_;
    Function &dst_;
    Module &module_;
    std::unordered_map<const Type *, Type *> types_;
    /** Constants, globals and callees of src mapped so far. */
    std::unordered_map<const Value *, Value *> values_;
    /** dst's blocks, by src block ordinal. */
    std::vector<BasicBlock *> blocks_;
};

void
cloneFunctionBody(const Function &src, Function &dst)
{
    BodyCloner(src, dst).run();
}

} // namespace repro::ir
