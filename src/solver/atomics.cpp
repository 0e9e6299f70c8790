#include "solver/atomics.h"

#include <algorithm>
#include <set>


namespace repro::solver {

using analysis::FunctionAnalyses;
using idl::AtomicKind;
using idl::FlowKind;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

const Instruction *
asInst(const Value *v)
{
    return v && v->isInstruction() ? static_cast<const Instruction *>(v)
                                   : nullptr;
}

/** Direct control flow edge a -> b at instruction granularity. */
bool
hasControlEdge(AtomContext &ctx, const Instruction *a,
               const Instruction *b)
{
    return ctx.analyses->cfg().hasEdge(a, b);
}

/** Direct data flow edge a -> b (a is an operand of b). */
bool
hasDataEdge(const Value *a, const Instruction *b)
{
    if (!b)
        return false;
    for (const Value *op : b->operands()) {
        if (op == a)
            return true;
    }
    return false;
}

/**
 * Kernel-closure check (the "all data flow into X inside R is killed
 * by ..." extension). See DESIGN.md: inputs of the computation of
 * @p out that live inside the region rooted at @p begin must all be
 * listed in @p allowed; values defined outside the region (loop
 * invariants), constants and arguments are implicitly available.
 */
bool
evalKernelClosure(AtomContext &ctx, const Value *out,
                  const Instruction *begin,
                  const std::set<const Value *> &allowed)
{
    if (!begin)
        return false;
    const analysis::DomTree &dom = ctx.analyses->domTree();
    auto in_region = [&](const Instruction *inst) {
        return dom.dominates(begin, inst);
    };

    std::vector<const Value *> stack{out};
    std::set<const Value *> seen{out};
    while (!stack.empty()) {
        const Value *v = stack.back();
        stack.pop_back();
        if (allowed.count(v))
            continue;
        if (v->isConstant() || v->isArgument() || v->isGlobal())
            continue;
        const Instruction *inst = asInst(v);
        if (!inst)
            return false;
        if (!in_region(inst)) {
            // Values defined before the region are available as
            // call-time parameters — except phis, which are loop
            // carried (e.g. the iterator) and must be listed
            // explicitly to be kernel inputs.
            if (inst->is(Opcode::Phi))
                return false;
            continue;
        }
        switch (inst->opcode()) {
          case Opcode::Load:
            // Unlisted memory reads inside the kernel are not well
            // behaved.
            return false;
          case Opcode::Phi:
            // In-region merges act as selects: recurse through all
            // incoming values (their conditions are checked at
            // transformation time).
            break;
          case Opcode::Call:
            if (!inst->callee()->isDeclaration())
                return false; // only pure builtins allowed
            break;
          case Opcode::Store:
          case Opcode::Br:
          case Opcode::Ret:
          case Opcode::Alloca:
            return false;
          default:
            break;
        }
        for (const Value *op : inst->operands()) {
            if (seen.insert(op).second)
                stack.push_back(op);
        }
    }
    return true;
}

/**
 * Data-flow dominance: every backward chain from @p b ends at leaves
 * (constants/arguments/loads) only after passing @p a.
 */
bool
dataFlowDominates(const Value *a, const Value *b)
{
    if (a == b)
        return true;
    const Instruction *inst = asInst(b);
    if (!inst)
        return false;
    std::vector<const Value *> stack{b};
    std::set<const Value *> seen{b};
    while (!stack.empty()) {
        const Value *v = stack.back();
        stack.pop_back();
        const Instruction *vi = asInst(v);
        if (!vi)
            return false; // reached a leaf without meeting a
        for (const Value *op : vi->operands()) {
            if (op == a)
                continue;
            if (seen.insert(op).second)
                stack.push_back(op);
        }
        if (vi->numOperands() == 0 && v != b)
            return false;
    }
    return true;
}

/**
 * The shared evaluation core. @p get(i) yields the bound value of
 * positional variable i (nullptr when unbound); @p getList(j) yields
 * the expanded j-th variable list. Both views instantiate this with
 * their own accessors, so slot and name resolution differ while the
 * semantics cannot drift apart.
 */
template <typename GetFn, typename ListFn>
bool
evalAtomicImpl(const AtomicTraits &t, GetFn get, ListFn getList,
               AtomContext &ctx)
{
    switch (t.atomic) {
      case AtomicKind::IsIntegerType:
        return get(0) && get(0)->type()->isInteger();
      case AtomicKind::IsFloatType:
        return get(0) && get(0)->type()->isFloatingPoint();
      case AtomicKind::IsPointerType:
        return get(0) && get(0)->type()->isPointer();
      case AtomicKind::IsConstantZero: {
        const Value *v = get(0);
        if (!v || !v->isConstant())
            return false;
        const auto *c = static_cast<const ir::Constant *>(v);
        if (!c->isZero())
            return false;
        if (t.zero == ZeroKind::Integer)
            return c->type()->isInteger();
        if (t.zero == ZeroKind::Float)
            return c->type()->isFloatingPoint();
        return c->type()->isPointer();
      }
      case AtomicKind::IsUnused:
        return get(0) && get(0)->unused();
      case AtomicKind::IsConstant:
        return get(0) && get(0)->isConstant();
      case AtomicKind::IsCompileTimeValue:
        return get(0) && (get(0)->isConstant() ||
                          get(0)->isArgument() || get(0)->isGlobal());
      case AtomicKind::IsArgument:
        return get(0) && get(0)->isArgument();
      case AtomicKind::IsInstruction:
        return get(0) && get(0)->isInstruction();
      case AtomicKind::IsOpcode: {
        const Instruction *inst = asInst(get(0));
        if (!inst || !t.opcodeKnown)
            return false;
        return inst->opcode() == t.opcode;
      }
      case AtomicKind::Same:
        return get(0) && get(0) == get(1);
      case AtomicKind::NotSame:
        return get(0) && get(1) && get(0) != get(1);
      case AtomicKind::HasDataFlowTo:
        return get(0) && hasDataEdge(get(0), asInst(get(1)));
      case AtomicKind::HasDataFlowPathTo:
        return get(0) && get(1) &&
               analysis::dataPathExists(get(0), get(1), {});
      case AtomicKind::HasControlFlowTo: {
        const Instruction *a = asInst(get(0));
        const Instruction *b = asInst(get(1));
        return a && b && hasControlEdge(ctx, a, b);
      }
      case AtomicKind::HasControlDominanceTo: {
        const Instruction *a = asInst(get(0));
        const Instruction *b = asInst(get(1));
        return a && b && ctx.analyses->hasControlDependenceEdge(a, b);
      }
      case AtomicKind::HasDependenceEdgeTo: {
        const Instruction *a = asInst(get(0));
        const Instruction *b = asInst(get(1));
        return a && b && ctx.analyses->hasMemoryDependenceEdge(a, b);
      }
      case AtomicKind::IsArgumentOf: {
        const Instruction *b = asInst(get(1));
        if (!b || !get(0))
            return false;
        size_t pos = static_cast<size_t>(t.argPosition - 1);
        return pos < b->numOperands() && b->operand(pos) == get(0);
      }
      case AtomicKind::ReachesPhiFrom: {
        const Instruction *phi = asInst(get(1));
        const Instruction *branch = asInst(get(2));
        const Value *v = get(0);
        if (!phi || !branch || !v || !phi->is(Opcode::Phi))
            return false;
        for (size_t i = 0; i < phi->numOperands(); ++i) {
            if (phi->operand(i) == v &&
                phi->incomingBlocks()[i]->terminator() == branch) {
                return true;
            }
        }
        return false;
      }
      case AtomicKind::Dominates: {
        const Value *a = get(0);
        const Value *b = get(1);
        if (!a || !b)
            return false;
        bool result;
        if (t.flow == FlowKind::Data) {
            result = dataFlowDominates(a, b);
            if (t.strict && a == b)
                result = false;
        } else {
            const Instruction *ia = asInst(a);
            const Instruction *ib = asInst(b);
            if (!ia || !ib)
                return false;
            const analysis::DomTree &tree =
                t.postDom ? ctx.analyses->postDomTree()
                          : ctx.analyses->domTree();
            result = t.strict ? tree.strictlyDominates(ia, ib)
                              : tree.dominates(ia, ib);
        }
        return t.negated ? !result : result;
      }
      case AtomicKind::AllFlowPassesThrough: {
        const Value *a = get(0);
        const Value *b = get(1);
        const Value *c = get(2);
        if (!a || !b || !c)
            return false;
        if (a == c || b == c)
            return true;
        if (t.flow == FlowKind::Control) {
            const Instruction *ia = asInst(a);
            const Instruction *ib = asInst(b);
            const Instruction *ic = asInst(c);
            if (!ia || !ib || !ic)
                return false;
            return !ctx.analyses->cfg().pathExists(ia, ib, {ic});
        }
        if (t.flow == FlowKind::Data)
            return !analysis::dataPathExists(a, b, {c});
        return !analysis::anyFlowPathExists(ctx.analyses->cfg(), a, b,
                                            {c});
      }
      case AtomicKind::FlowKilledBy: {
        auto froms = getList(0);
        auto tos = getList(1);
        auto kills = getList(2);
        std::set<const Value *> kill_set(kills.begin(), kills.end());
        for (const Value *a : froms) {
            for (const Value *b : tos) {
                if (kill_set.count(a) || kill_set.count(b))
                    continue;
                bool path;
                if (t.flow == FlowKind::Data) {
                    path = analysis::dataPathExists(a, b, kill_set);
                } else {
                    path = analysis::anyFlowPathExists(
                        ctx.analyses->cfg(), a, b, kill_set);
                }
                if (path)
                    return false;
            }
        }
        return true;
      }
      case AtomicKind::KernelClosure: {
        const Value *out = get(0);
        const Instruction *begin = asInst(get(1));
        if (!out)
            return false;
        auto allowed_vec = getList(0);
        std::set<const Value *> allowed(allowed_vec.begin(),
                                        allowed_vec.end());
        return evalKernelClosure(ctx, out, begin, allowed);
      }
    }
    return false;
}

/**
 * The shared generation core. Returns nullptr when the atomic cannot
 * generate; otherwise a pointer to a CandidateIndex bucket (borrowed)
 * or to @p scratch (overwritten by this call).
 */
template <typename GetFn>
const std::vector<const Value *> *
genCandidatesImpl(const AtomicTraits &t, size_t var_index, GetFn get,
                  AtomContext &ctx,
                  std::vector<const Value *> &scratch)
{
    scratch.clear();

    switch (t.atomic) {
      case AtomicKind::IsOpcode:
        if (!t.opcodeKnown)
            return &scratch; // unknown opcode: empty set
        return &ctx.index->opcode(t.opcode);
      case AtomicKind::IsInstruction:
        return &ctx.index->instructions();
      case AtomicKind::IsArgument:
        return &ctx.index->arguments();
      case AtomicKind::IsConstant:
        return &ctx.index->constants();
      case AtomicKind::IsConstantZero:
        return &ctx.index->zeroConstants();
      case AtomicKind::IsCompileTimeValue:
        return &ctx.index->compileTimeValues();
      case AtomicKind::Same: {
        const Value *other = get(var_index == 0 ? 1 : 0);
        if (other) {
            scratch.push_back(other);
            return &scratch;
        }
        return nullptr;
      }
      case AtomicKind::IsArgumentOf: {
        if (var_index == 0) {
            const Instruction *b = asInst(get(1));
            if (!b)
                return nullptr;
            size_t pos = static_cast<size_t>(t.argPosition - 1);
            if (pos < b->numOperands())
                scratch.push_back(b->operand(pos));
            return &scratch;
        }
        const Value *a = get(0);
        if (!a)
            return nullptr;
        // Operand-edge adjacency: users holding {a} at the wanted
        // position were indexed up front.
        size_t pos = static_cast<size_t>(t.argPosition - 1);
        return &ctx.index->usersAt(a, pos);
      }
      case AtomicKind::HasDataFlowTo: {
        if (var_index == 0) {
            const Instruction *b = asInst(get(1));
            if (!b)
                return nullptr;
            for (const Value *op : b->operands())
                scratch.push_back(op);
            return &scratch;
        }
        const Value *a = get(0);
        if (!a)
            return nullptr;
        for (const Instruction *user : a->users())
            scratch.push_back(user);
        return &scratch;
      }
      case AtomicKind::HasControlFlowTo: {
        if (var_index == 0) {
            const Instruction *b = asInst(get(1));
            if (!b)
                return nullptr;
            for (const Instruction *p :
                 ctx.analyses->cfg().predecessors(b)) {
                scratch.push_back(p);
            }
            return &scratch;
        }
        const Instruction *a = asInst(get(0));
        if (!a)
            return nullptr;
        for (const Instruction *s : ctx.analyses->cfg().successors(a))
            scratch.push_back(s);
        return &scratch;
      }
      case AtomicKind::ReachesPhiFrom: {
        const Instruction *phi = asInst(get(1));
        if (var_index == 0) {
            if (!phi || !phi->is(Opcode::Phi))
                return nullptr;
            const Value *branch = get(2);
            for (size_t i = 0; i < phi->numOperands(); ++i) {
                if (!branch ||
                    phi->incomingBlocks()[i]->terminator() == branch) {
                    scratch.push_back(phi->operand(i));
                }
            }
            return &scratch;
        }
        if (var_index == 1) {
            const Value *v = get(0);
            if (!v)
                return nullptr;
            for (const Instruction *user : v->users()) {
                if (user->is(Opcode::Phi))
                    scratch.push_back(user);
            }
            return &scratch;
        }
        // var_index == 2: the incoming branch.
        if (!phi || !phi->is(Opcode::Phi))
            return nullptr;
        const Value *v = get(0);
        for (size_t i = 0; i < phi->numOperands(); ++i) {
            if (!v || phi->operand(i) == v) {
                if (const Instruction *term =
                        phi->incomingBlocks()[i]->terminator()) {
                    scratch.push_back(term);
                }
            }
        }
        return &scratch;
      }
      default:
        return nullptr;
    }
}

/** Expand compiled variable list @p j of @p node against @p bound. */
std::vector<const Value *>
expandCompiledList(const CompiledProgram &prog, const CompiledNode &node,
                   size_t j, const SlotBindings &bound)
{
    std::vector<const Value *> out;
    const CompiledList &cl =
        prog.lists()[node.listsBegin + static_cast<uint32_t>(j)];
    for (uint32_t i = cl.begin; i < cl.end; ++i) {
        const ListEntry &e = prog.listEntries()[i];
        if (!e.wildcard) {
            if (const Value *v = bound[e.id])
                out.push_back(v);
            continue;
        }
        for (uint32_t slot : prog.wildcardRun(e.id)) {
            const Value *v = bound[slot];
            if (!v)
                break;
            out.push_back(v);
        }
    }
    return out;
}

} // namespace

// ------------------------------------------------- slot-indexed view

bool
evalAtomic(const CompiledProgram &prog, const CompiledNode &node,
           const SlotBindings &bound, AtomContext &ctx)
{
    auto get = [&](size_t i) -> const Value * {
        return bound[prog.varSlot(node, i)];
    };
    auto getList = [&](size_t j) {
        return expandCompiledList(prog, node, j, bound);
    };
    return evalAtomicImpl(node.traits, get, getList, ctx);
}

const std::vector<const Value *> *
genCandidates(const CompiledProgram &prog, const CompiledNode &node,
              size_t var_index, const SlotBindings &bound,
              AtomContext &ctx, std::vector<const Value *> &scratch)
{
    auto get = [&](size_t i) -> const Value * {
        return bound[prog.varSlot(node, i)];
    };
    return genCandidatesImpl(node.traits, var_index, get, ctx, scratch);
}

// -------------------------------------------------- name-keyed view

std::vector<const Value *>
expandVarList(const std::vector<std::string> &names,
              const Bindings &bound)
{
    std::vector<const Value *> out;
    for (const std::string &name : names) {
        size_t star = name.find("[*]");
        if (star == std::string::npos) {
            auto it = bound.find(name);
            if (it != bound.end())
                out.push_back(it->second);
            continue;
        }
        for (int k = 0;; ++k) {
            std::string expanded = name.substr(0, star) + "[" +
                                   std::to_string(k) + "]" +
                                   name.substr(star + 3);
            auto it = bound.find(expanded);
            if (it == bound.end())
                break;
            out.push_back(it->second);
        }
    }
    return out;
}

bool
isDeferredAtomic(const Node &node)
{
    if (node.atomic == AtomicKind::KernelClosure ||
        node.atomic == AtomicKind::FlowKilledBy) {
        return true;
    }
    for (const auto &list : node.varLists) {
        for (const auto &name : list) {
            if (name.find("[*]") != std::string::npos)
                return true;
        }
    }
    return false;
}

bool
evalAtomic(const Node &node, const Bindings &bound, AtomContext &ctx)
{
    auto get = [&](size_t i) -> const Value * {
        auto it = bound.find(node.vars[i]);
        return it == bound.end() ? nullptr : it->second;
    };
    auto getList = [&](size_t j) {
        return expandVarList(node.varLists[j], bound);
    };
    return evalAtomicImpl(resolveAtomicTraits(node), get, getList, ctx);
}

std::optional<std::vector<const Value *>>
genCandidates(const Node &node, size_t var_index, const Bindings &bound,
              AtomContext &ctx)
{
    auto get = [&](size_t i) -> const Value * {
        auto it = bound.find(node.vars[i]);
        return it == bound.end() ? nullptr : it->second;
    };
    std::vector<const Value *> scratch;
    const std::vector<const Value *> *r = genCandidatesImpl(
        resolveAtomicTraits(node), var_index, get, ctx, scratch);
    if (!r)
        return std::nullopt;
    return *r;
}

} // namespace repro::solver
