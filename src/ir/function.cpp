#include "ir/function.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <unordered_set>

#include "support/diagnostics.h"

namespace repro::ir {

Function::Function(Type *func_type, std::string name, Module *parent)
    : Value(ValueKind::FunctionRef, func_type, std::move(name)),
      module_(parent), funcType_(func_type)
{
    const auto &params = func_type->params();
    for (size_t i = 0; i < params.size(); ++i) {
        std::ostringstream os;
        os << "arg" << i;
        args_.emplace_back(new Argument(params[i], os.str(), this,
                                        static_cast<int>(i)));
    }
}

void
Function::dropAllReferences()
{
    for (const auto &bb : blocks_) {
        for (const auto &inst : bb->insts())
            inst->dropOperands();
    }
}

BasicBlock *
Function::createBlock(const std::string &name)
{
    // A new block has no predecessors yet: the CFG stays valid.
    blocks_.emplace_back(new BasicBlock(name, this));
    BasicBlock *bb = blocks_.back().get();
    bb->ordinal_ = blocks_.size() - 1;
    if (layoutValid_ == bb->ordinal_)
        ++layoutValid_;
    return bb;
}

BasicBlock *
Function::blockByName(const std::string &name) const
{
    for (const auto &bb : blocks_) {
        if (bb->name() == name)
            return bb.get();
    }
    return nullptr;
}

int
Function::blockIndex(const BasicBlock *bb) const
{
    if (!bb || bb->parent() != this)
        return -1;
    size_t at = bb->ordinal_;
    if (at < blocks_.size() && blocks_[at].get() == bb)
        return static_cast<int>(at);
    for (size_t i = layoutValid_; i < blocks_.size(); ++i)
        blocks_[i]->ordinal_ = i;
    layoutValid_ = blocks_.size();
    return static_cast<int>(bb->ordinal_);
}

void
Function::eraseBlock(BasicBlock *bb)
{
    int idx = blockIndex(bb);
    reproAssert(idx >= 0, "eraseBlock: block not in function");
    layoutValid_ = std::min(layoutValid_, static_cast<size_t>(idx));
    cfgValid_ = false;
    blocks_.erase(blocks_.begin() + idx);
}

void
Function::ensureCFG() const
{
    if (cfgValid_)
        return;
    for (const auto &bb : blocks_)
        bb->preds_.clear();
    // Layout order, each predecessor once: a block's repeated targets
    // are met while it is still the last entry of the target's list.
    for (const auto &bb : blocks_) {
        for (BasicBlock *succ : bb->successors()) {
            if (!succ || succ->parent() != this)
                continue;
            auto &preds = succ->preds_;
            if (preds.empty() || preds.back() != bb.get())
                preds.push_back(bb.get());
        }
    }
    cfgValid_ = true;
}

void
Function::eraseInstructions(const std::vector<Instruction *> &dead)
{
    std::unordered_set<const Instruction *> doomed(
        dead.begin(), dead.end(), 2 * dead.size());
    // One filtering pass per used value instead of one search per
    // operand edge.
    std::vector<Value *> used;
    std::unordered_set<const Value *> seen(2 * dead.size());
    for (Instruction *inst : dead) {
        for (Value *op : inst->operands_) {
            if (seen.insert(op).second)
                used.push_back(op);
        }
        inst->operands_.clear();
    }
    for (Value *v : used) {
        auto &users = v->users_;
        users.erase(std::remove_if(users.begin(), users.end(),
                                   [&](const Instruction *u) {
                                       return doomed.count(u) > 0;
                                   }),
                    users.end());
    }

    std::vector<BasicBlock *> blocks;
    std::unordered_set<const BasicBlock *> touched;
    for (Instruction *inst : dead) {
        reproAssert(inst->unused(),
                    "eraseInstructions: instruction still has users");
        BasicBlock *bb = inst->parent();
        reproAssert(bb && bb->parent() == this,
                    "eraseInstructions: instruction not in function");
        if (touched.insert(bb).second)
            blocks.push_back(bb);
    }
    for (BasicBlock *bb : blocks) {
        auto &insts = bb->insts_;
        auto doomedAt = [&](const std::unique_ptr<Instruction> &i) {
            return doomed.count(i.get()) > 0;
        };
        if (doomedAt(insts.back()))
            cfgValid_ = false;
        auto first = std::find_if(insts.begin(), insts.end(), doomedAt);
        bb->invalidateOrdinals(
            static_cast<size_t>(first - insts.begin()));
        insts.erase(std::remove_if(first, insts.end(), doomedAt),
                    insts.end());
    }
}

std::vector<Value *>
Function::renumber()
{
    std::vector<Value *> values;
    int next = 0;
    for (const auto &a : args_) {
        a->setId(next++);
        values.push_back(a.get());
    }
    std::set<Value *> const_seen;
    for (const auto &bb : blocks_) {
        for (const auto &inst : bb->insts()) {
            inst->setId(next++);
            values.push_back(inst.get());
            for (Value *op : inst->operands()) {
                if ((op->isConstant() || op->isGlobal()) &&
                    const_seen.insert(op).second) {
                    op->setId(next++);
                    values.push_back(op);
                }
            }
        }
    }
    return values;
}

namespace {

/** FNV-1a accumulator behind Function::contentHash(). */
struct ContentHasher
{
    uint64_t h = 14695981039346656037ull;

    void
    mixByte(uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            mixByte(static_cast<uint8_t>(v & 0xff));
            v >>= 8;
        }
    }

    void
    mix(const std::string &s)
    {
        mix(s.size());
        for (char c : s)
            mixByte(static_cast<uint8_t>(c));
    }

    /**
     * Structural type mix: kinds and shapes only, never Type
     * addresses, so functions of different modules (whose
     * TypeContexts intern separately) hash alike.
     */
    void
    mixType(const Type *t)
    {
        if (!t) {
            mix(uint64_t(0xff));
            return;
        }
        mix(static_cast<uint64_t>(t->kind()));
        switch (t->kind()) {
          case Type::Kind::Pointer:
            mixType(t->element());
            break;
          case Type::Kind::Array:
            mixType(t->element());
            mix(t->arraySize());
            break;
          case Type::Kind::Function:
            mixType(t->returnType());
            mix(t->params().size());
            for (Type *p : t->params())
                mixType(p);
            break;
          default:
            break;
        }
    }
};

} // namespace

uint64_t
Function::contentHash() const
{
    ContentHasher hasher;

    // Dense positional identities for every locally defined value and
    // block: arguments first, then instructions in layout order, so an
    // instruction's identity is its block's first index plus its
    // ordinal there. Forward references (phis) resolve the same way.
    std::vector<uint32_t> firstOf(blocks_.size());
    uint32_t next = static_cast<uint32_t>(args_.size());
    for (size_t b = 0; b < blocks_.size(); ++b) {
        firstOf[b] = next;
        next += static_cast<uint32_t>(blocks_[b]->size());
    }
    auto localIndex = [&](const Value *v) -> int64_t {
        if (v->isArgument()) {
            const auto *a = static_cast<const Argument *>(v);
            return a->parent() == this ? a->index() : -1;
        }
        if (!v->isInstruction())
            return -1;
        const auto *inst = static_cast<const Instruction *>(v);
        const BasicBlock *bb = inst->parent();
        if (!bb || bb->parent() != this)
            return -1;
        return firstOf[static_cast<size_t>(blockIndex(bb))] +
               static_cast<uint32_t>(bb->indexOf(inst));
    };

    hasher.mix(args_.size());
    for (const auto &a : args_)
        hasher.mixType(a->type());
    hasher.mixType(returnType());

    hasher.mix(blocks_.size());
    for (const auto &bb : blocks_) {
        hasher.mix(bb->size());
        for (const auto &inst : bb->insts()) {
            hasher.mix(static_cast<uint64_t>(inst->opcode()));
            hasher.mixType(inst->type());
            if (inst->is(Opcode::ICmp) || inst->is(Opcode::FCmp))
                hasher.mix(static_cast<uint64_t>(inst->cmpPred()));
            if (inst->accessType())
                hasher.mixType(inst->accessType());
            if (inst->callee())
                hasher.mix(inst->callee()->name());

            hasher.mix(inst->numOperands());
            for (const Value *op : inst->operands()) {
                int64_t index = localIndex(op);
                if (index >= 0) {
                    hasher.mix(uint64_t(0x10));
                    hasher.mix(static_cast<uint32_t>(index));
                    continue;
                }
                switch (op->kind()) {
                  case ValueKind::Constant: {
                    const auto *c = static_cast<const Constant *>(op);
                    hasher.mix(c->isFP() ? uint64_t(0xC1)
                                         : uint64_t(0xC0));
                    hasher.mixType(c->type());
                    uint64_t bits;
                    if (c->isFP()) {
                        double d = c->fpValue();
                        std::memcpy(&bits, &d, sizeof(bits));
                    } else {
                        bits = static_cast<uint64_t>(c->intValue());
                    }
                    hasher.mix(bits);
                    break;
                  }
                  case ValueKind::GlobalVariable:
                    hasher.mix(uint64_t(0x60));
                    hasher.mix(op->name());
                    break;
                  case ValueKind::FunctionRef:
                    hasher.mix(uint64_t(0xF0));
                    hasher.mix(op->name());
                    break;
                  default:
                    // A value defined in another function: no stable
                    // positional identity exists, but the edge itself
                    // must still perturb the hash.
                    hasher.mix(uint64_t(0xEE));
                    hasher.mix(op->name());
                    break;
                }
            }

            const auto &targets = inst->blockTargets();
            hasher.mix(targets.size());
            for (const BasicBlock *t : targets) {
                int index = blockIndex(t);
                hasher.mix(index >= 0 ? static_cast<uint32_t>(index)
                                      : uint32_t(~0u));
            }
        }
    }
    return hasher.h;
}

size_t
Function::instructionCount() const
{
    size_t n = 0;
    for (const auto &bb : blocks_)
        n += bb->size();
    return n;
}

std::string
Function::uniqueName(const std::string &prefix)
{
    std::ostringstream os;
    os << prefix << nameCounter_++;
    return os.str();
}

void
Function::addAttribute(const std::string &attr)
{
    if (!hasAttribute(attr))
        attributes_.push_back(attr);
}

bool
Function::hasAttribute(const std::string &attr) const
{
    for (const auto &a : attributes_) {
        if (a == attr)
            return true;
    }
    return false;
}

Function *
Module::createFunction(const std::string &name, Type *ret,
                       std::vector<Type *> params)
{
    Type *fty = types_.functionTy(ret, std::move(params));
    functions_.emplace_back(new Function(fty, name, this));
    return functions_.back().get();
}

void
Module::removeFunction(Function *func)
{
    for (size_t i = 0; i < functions_.size(); ++i) {
        if (functions_[i].get() == func) {
            functions_.erase(functions_.begin() +
                             static_cast<ptrdiff_t>(i));
            return;
        }
    }
    reproAssert(false, "removeFunction: function not in module");
}

Function *
Module::functionByName(const std::string &name) const
{
    for (const auto &f : functions_) {
        if (f->name() == name)
            return f.get();
    }
    return nullptr;
}

std::vector<const Constant *>
Module::internedConstants() const
{
    std::vector<const Constant *> out;
    out.reserve(intConsts_.size() + fpConsts_.size());
    for (const auto &[key, c] : intConsts_)
        out.push_back(c.get());
    for (const auto &[key, c] : fpConsts_)
        out.push_back(c.get());
    return out;
}

GlobalVariable *
Module::createGlobal(const std::string &name, Type *stored)
{
    globals_.emplace_back(
        new GlobalVariable(types_.pointerTo(stored), stored, name));
    return globals_.back().get();
}

GlobalVariable *
Module::globalByName(const std::string &name) const
{
    for (const auto &g : globals_) {
        if (g->name() == name)
            return g.get();
    }
    return nullptr;
}

Constant *
Module::intConst(Type *type, int64_t value)
{
    auto key = std::make_pair(type, value);
    auto it = intConsts_.find(key);
    if (it != intConsts_.end())
        return it->second.get();
    auto c = std::make_unique<Constant>(type, value);
    Constant *out = c.get();
    intConsts_[key] = std::move(c);
    return out;
}

Constant *
Module::fpConst(Type *type, double value)
{
    auto key = std::make_pair(type, value);
    auto it = fpConsts_.find(key);
    if (it != fpConsts_.end())
        return it->second.get();
    auto c = std::make_unique<Constant>(type, value);
    Constant *out = c.get();
    fpConsts_[key] = std::move(c);
    return out;
}

} // namespace repro::ir
