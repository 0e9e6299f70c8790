#include "transform/transform.h"

#include <set>

#include "analysis/function_analyses.h"
#include "frontend/passes.h"
#include "transform/extract.h"
#include "transform/loop_shape.h"

namespace repro::transform {

using namespace detail;
using analysis::DomTree;
using analysis::LoopInfo;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Type;
using ir::Value;
using solver::Solution;

// ------------------------------------------------- legacy reference path
//
// The pre-engine implementation, byte-for-byte: apply one match at a
// time and run cleanup passes immediately after each replacement.
// Solutions of later matches may dangle into IR this cleanup erased —
// that is exactly the bug class the RewriteEngine exists to fix — so
// this path is only safe on match sets known to be disjoint.

std::vector<Replacement>
Transformer::applyAllReference(
    const std::vector<idioms::IdiomMatch> &matches)
{
    std::vector<Replacement> out;
    for (const auto &m : matches) {
        auto r = applyReference(m);
        if (r)
            out.push_back(*r);
    }
    return out;
}

std::optional<Replacement>
Transformer::applyReference(const idioms::IdiomMatch &match)
{
    std::optional<Replacement> result;
    if (match.idiom == "SPMV")
        result = applySpmv(match);
    else if (match.idiom == "GEMM")
        result = applyGemm(match);
    else if (match.idiom == "Reduction")
        result = applyReduction(match);
    else if (match.idiom == "Histogram")
        result = applyHistogram(match);
    else if (match.idiom == "Stencil3D")
        result = applyStencil(match, 3);
    else if (match.idiom == "Stencil1D")
        result = applyStencil(match, 1);
    if (result) {
        frontend::removeUnreachableBlocks(match.function);
        frontend::aggressiveDCE(match.function);
    }
    return result;
}

std::optional<Replacement>
Transformer::applySpmv(const idioms::IdiomMatch &match)
{
    const Solution &sol = match.solution;
    LoopShape loop = loopFromSolution(sol, "");
    if (!loop.complete())
        return std::nullopt;

    Value *rowstr = asValue(sol.lookup("range.lo.base_pointer"));
    Value *colidx = asValue(sol.lookup("idx_read.base_pointer"));
    Value *a = asValue(sol.lookup("seq_read.base_pointer"));
    Value *z = asValue(sol.lookup("indir_read.base_pointer"));
    Value *r = asValue(sol.lookup("output.base_pointer"));
    if (!rowstr || !colidx || !a || !z || !r)
        return std::nullopt;

    auto &types = module_.types();
    // The fixed cusparseDcsrmv-like signature (Figure 6).
    if (pointeeElement(rowstr) != types.i32Ty() ||
        pointeeElement(colidx) != types.i32Ty() ||
        pointeeElement(a) != types.doubleTy() ||
        pointeeElement(z) != types.doubleTy() ||
        pointeeElement(r) != types.doubleTy()) {
        return std::nullopt;
    }

    analysis::DomTree dom(match.function, false);
    analysis::LoopInfo loops(match.function, dom);
    const analysis::Loop *natural = findLoop(loops, loop);
    if (!natural || !loopIsSelfContained(*natural, nullptr))
        return std::nullopt;
    if (!loopEffectsAreCovered(
            *natural, {sol.lookup("output.store_instr")}, false)) {
        return std::nullopt;
    }

    Function *callee = module_.functionByName("__hetero_spmv");
    if (!callee) {
        Type *i32p = types.pointerTo(types.i32Ty());
        Type *f64p = types.pointerTo(types.doubleTy());
        callee = module_.createFunction(
            "__hetero_spmv", types.voidTy(),
            {types.i64Ty(), types.i64Ty(), i32p, i32p, f64p, f64p,
             f64p});
    }

    BasicBlock *tramp = bypassLoop(module_, loop);
    if (!tramp)
        return std::nullopt;
    Inserter ins(module_, tramp);
    ins.call(callee,
             {ins.toI64(loop.iterBegin), ins.toI64(loop.iterEnd),
              ins.decay(rowstr), ins.decay(colidx), ins.decay(a),
              ins.decay(z), ins.decay(r)});

    Replacement rep;
    rep.kind = "spmv";
    rep.calleeName = callee->name();
    rep.callee = callee;
    return rep;
}

std::optional<Replacement>
Transformer::applyGemm(const idioms::IdiomMatch &match)
{
    const Solution &sol = match.solution;
    LoopShape loop0 = loopFromSolution(sol, "loop[0].");
    LoopShape loop1 = loopFromSolution(sol, "loop[1].");
    LoopShape loop2 = loopFromSolution(sol, "loop[2].");
    if (!loop0.complete() || !loop1.complete() || !loop2.complete())
        return std::nullopt;

    auto &types = module_.types();

    // Resolve one matrix access into base + (col, row) strides.
    struct Access
    {
        Value *base = nullptr;
        Value *colStride = nullptr;
        Value *rowStride = nullptr;
    };
    // col/row of each access were unified with loop iterators by the
    // GEMM constraint (Figure 10): output ↦ (it0, it1), input1 ↦
    // (it0, it2), input2 ↦ (it1, it2).
    auto resolve = [&](const std::string &prefix, const char *col_var,
                       const char *row_var) -> std::optional<Access> {
        Access acc;
        acc.base = asValue(sol.lookup(prefix + ".base_pointer"));
        if (!acc.base)
            return std::nullopt;
        const Value *col = sol.lookup(col_var);
        const Value *row = sol.lookup(row_var);
        Value *one = module_.intConst(types.i64Ty(), 1);
        if (const Value *stride = sol.lookup(prefix + ".stride")) {
            // Flat form: plain + scaled_iter*stride.
            const Value *plain =
                stripSext(sol.lookup(prefix + ".plain"));
            if (plain == col) {
                acc.colStride = one;
                acc.rowStride = asValue(stride);
            } else if (plain == row) {
                acc.rowStride = one;
                acc.colStride = asValue(stride);
            } else {
                return std::nullopt;
            }
            return acc;
        }
        // 2D form: rowgep selects a row array; the address indexes it.
        Instruction *address = asInst(sol.lookup(prefix + ".address"));
        Instruction *rowgep = asInst(sol.lookup(prefix + ".rowgep"));
        if (!address || !rowgep)
            return std::nullopt;
        // Inner index of `address` (last operand, through sext).
        const Value *inner = stripSext(
            address->operand(address->numOperands() - 1));
        int64_t row_elems = static_cast<int64_t>(
            address->accessType()->arraySize());
        Value *stride =
            module_.intConst(types.i64Ty(), row_elems);
        if (inner == col) {
            acc.colStride = one;
            acc.rowStride = stride;
        } else if (inner == row) {
            acc.rowStride = one;
            acc.colStride = stride;
        } else {
            return std::nullopt;
        }
        return acc;
    };

    auto out = resolve("output", "iterator[0]", "iterator[1]");
    auto in1 = resolve("input1", "iterator[0]", "iterator[2]");
    auto in2 = resolve("input2", "iterator[1]", "iterator[2]");
    if (!out || !in1 || !in2)
        return std::nullopt;

    Type *elem = pointeeElement(out->base);
    if (elem != pointeeElement(in1->base) ||
        elem != pointeeElement(in2->base) ||
        !(elem == types.floatTy() || elem == types.doubleTy())) {
        return std::nullopt;
    }

    // Alpha / beta extraction from the stored value expression.
    const Value *acc_phi = sol.lookup("acc");
    const Value *stored = sol.lookup("stored_value");
    const Value *init = sol.lookup("init");
    const Value *out_addr = sol.lookup("output.address");
    if (!acc_phi || !stored || !init)
        return std::nullopt;

    Value *alpha = nullptr;
    Value *beta = nullptr;
    auto fp_const = [&](double v) -> Value * {
        return module_.fpConst(elem, v);
    };
    auto is_load_of_out = [&](const Value *v) {
        const Instruction *inst =
            v->isInstruction()
                ? static_cast<const Instruction *>(v)
                : nullptr;
        return inst && inst->is(Opcode::Load) &&
               structurallyEqual(inst->operand(0), out_addr);
    };

    std::set<const Value *> allowed_stores;
    allowed_stores.insert(sol.lookup("store_instr"));
    if (stored == acc_phi) {
        alpha = fp_const(1.0);
        if (init->isConstant() &&
            static_cast<const ir::Constant *>(init)->isZero()) {
            beta = fp_const(0.0);
        } else if (is_load_of_out(init)) {
            // Promoted accumulator (Figure 8, second style). If the
            // same iteration zero-initializes the cell first, the
            // effective semantics are beta = 0 and the init store
            // dies with the loop.
            const auto *init_load =
                static_cast<const Instruction *>(init);
            BasicBlock *bb = init_load->parent();
            int at = bb->indexOf(init_load);
            const Instruction *zero_store = nullptr;
            for (int i = at - 1; i >= 0; --i) {
                const Instruction *prev =
                    bb->insts()[static_cast<size_t>(i)].get();
                if (prev->is(Opcode::Store) &&
                    structurallyEqual(prev->operand(1),
                                      init_load->operand(0))) {
                    zero_store = prev;
                    break;
                }
            }
            if (zero_store) {
                const Value *sv = zero_store->operand(0);
                if (!sv->isConstant() ||
                    !static_cast<const ir::Constant *>(sv)->isZero()) {
                    return std::nullopt;
                }
                beta = fp_const(0.0);
                allowed_stores.insert(zero_store);
            } else {
                beta = fp_const(1.0);
            }
        } else {
            return std::nullopt;
        }
    } else {
        // Match beta*C + alpha*acc (any operand order).
        const Instruction *add = asInst(stored);
        if (!add || !add->is(Opcode::FAdd))
            return std::nullopt;
        const Instruction *mul_a = asInst(add->operand(0));
        const Instruction *mul_b = asInst(add->operand(1));
        if (!mul_a || !mul_b || !mul_a->is(Opcode::FMul) ||
            !mul_b->is(Opcode::FMul)) {
            return std::nullopt;
        }
        auto pick = [&](const Instruction *mul, const Value *want,
                        auto pred) -> Value * {
            for (int i = 0; i < 2; ++i) {
                if (pred(mul->operand(static_cast<size_t>(i)), want))
                    return asValue(mul->operand(1 - i));
            }
            return nullptr;
        };
        auto is_same = [](const Value *a, const Value *b) {
            return a == b;
        };
        auto is_out_load = [&](const Value *a, const Value *) {
            return is_load_of_out(a);
        };
        // acc can reach the mul through the phi exit value directly.
        alpha = pick(mul_a, acc_phi, is_same);
        beta = pick(mul_b, nullptr, is_out_load);
        if (!alpha || !beta) {
            alpha = pick(mul_b, acc_phi, is_same);
            beta = pick(mul_a, nullptr, is_out_load);
        }
        if (!alpha || !beta)
            return std::nullopt;
        if (!init->isConstant() ||
            !static_cast<const ir::Constant *>(init)->isZero()) {
            return std::nullopt;
        }
    }

    analysis::DomTree dom(match.function, false);
    analysis::LoopInfo loops(match.function, dom);
    const analysis::Loop *natural = findLoop(loops, loop0);
    if (!natural || !loopIsSelfContained(*natural, nullptr))
        return std::nullopt;
    if (!loopEffectsAreCovered(*natural, allowed_stores, false))
        return std::nullopt;
    // alpha/beta must be available before the nest.
    for (Value *v : {alpha, beta}) {
        if (Instruction *inst = asInst(v)) {
            if (!dom.dominates(inst, loop0.precursor))
                return std::nullopt;
        }
    }

    bool is_f32 = elem == types.floatTy();
    std::string name = is_f32 ? "__hetero_gemm_f32"
                              : "__hetero_gemm_f64";
    Function *callee = module_.functionByName(name);
    if (!callee) {
        Type *i64 = types.i64Ty();
        Type *ep = types.pointerTo(elem);
        callee = module_.createFunction(
            name, types.voidTy(),
            {i64, i64, i64, i64, i64, i64, // bounds
             ep, i64, i64,                 // C, c_col, c_row
             ep, i64, i64,                 // A, a_col, a_k
             ep, i64, i64,                 // B, b_col, b_k
             elem, elem});                 // alpha, beta
    }

    BasicBlock *tramp = bypassLoop(module_, loop0);
    if (!tramp)
        return std::nullopt;
    Inserter ins(module_, tramp);
    ins.call(callee,
             {ins.toI64(loop0.iterBegin), ins.toI64(loop0.iterEnd),
              ins.toI64(loop1.iterBegin), ins.toI64(loop1.iterEnd),
              ins.toI64(loop2.iterBegin), ins.toI64(loop2.iterEnd),
              ins.decay(out->base), ins.toI64(out->colStride),
              ins.toI64(out->rowStride), ins.decay(in1->base),
              ins.toI64(in1->colStride), ins.toI64(in1->rowStride),
              ins.decay(in2->base), ins.toI64(in2->colStride),
              ins.toI64(in2->rowStride), alpha, beta});

    Replacement rep;
    rep.kind = "gemm";
    rep.calleeName = name;
    rep.callee = callee;
    rep.elemKind = elem->kind();
    return rep;
}

std::optional<Replacement>
Transformer::applyReduction(const idioms::IdiomMatch &match)
{
    const Solution &sol = match.solution;
    LoopShape loop = loopFromSolution(sol, "");
    if (!loop.complete())
        return std::nullopt;

    const Value *old_value = sol.lookup("old_value");
    const Value *kernel_out = sol.lookup("kernel_output");
    Value *init = asValue(sol.lookup("init_value"));
    if (!old_value || !kernel_out || !init)
        return std::nullopt;

    auto reads = sol.lookupArray("read_value[*]");
    std::vector<Value *> bases;
    for (size_t i = 0; i < reads.size(); ++i) {
        Value *base = asValue(sol.lookup(
            "read[" + std::to_string(i) + "].base_pointer"));
        if (!base)
            return std::nullopt;
        bases.push_back(base);
    }

    analysis::DomTree dom(match.function, false);
    analysis::LoopInfo loops(match.function, dom);
    const analysis::Loop *natural = findLoop(loops, loop);
    if (!natural || !loopIsSelfContained(*natural, old_value))
        return std::nullopt;
    if (!loopEffectsAreCovered(*natural, {}, true))
        return std::nullopt;
    for (Value *base : bases) {
        if (Instruction *inst = asInst(base)) {
            if (!dom.dominates(inst, loop.precursor))
                return std::nullopt;
        }
    }

    std::vector<const Value *> inputs(reads.begin(), reads.end());
    inputs.push_back(old_value);
    std::string kname =
        "__kernel_reduce_" + std::to_string(counter_++);
    auto extracted =
        extractKernel(module_, kname, kernel_out, loop.bodyBegin,
                      inputs, dom, loop.precursor);
    if (!extracted)
        return std::nullopt;

    auto &types = module_.types();
    Type *acc_type = asValue(old_value)->type();
    std::vector<Type *> params{types.i64Ty(), types.i64Ty(), acc_type};
    for (Value *base : bases)
        params.push_back(types.pointerTo(pointeeElement(base)));
    for (const Value *inv : extracted->invariants)
        params.push_back(inv->type());
    std::string name = "__hetero_reduce_" + std::to_string(counter_++);
    Function *callee =
        module_.createFunction(name, acc_type, params);

    BasicBlock *tramp = bypassLoop(module_, loop);
    if (!tramp)
        return std::nullopt;
    Inserter ins(module_, tramp);
    std::vector<Value *> args{ins.toI64(loop.iterBegin),
                              ins.toI64(loop.iterEnd), init};
    for (Value *base : bases)
        args.push_back(ins.decay(base));
    for (const Value *inv : extracted->invariants)
        args.push_back(asValue(inv));
    Instruction *call = ins.call(callee, args);

    // Out-of-loop uses of the accumulator phi become the call result.
    std::vector<Instruction *> users(asValue(old_value)->users());
    for (Instruction *user : users) {
        if (user == call || natural->contains(user->parent()))
            continue;
        for (size_t i = 0; i < user->numOperands(); ++i) {
            if (user->operand(i) == old_value)
                user->setOperand(i, call);
        }
    }

    Replacement rep;
    rep.kind = "reduce";
    rep.calleeName = name;
    rep.callee = callee;
    rep.kernel = extracted->func;
    rep.numReads = static_cast<int>(reads.size());
    rep.numInvariants = static_cast<int>(extracted->invariants.size());
    for (const Value *r : reads)
        rep.readKinds.push_back(r->type()->kind());
    rep.elemKind = acc_type->kind();
    return rep;
}

std::optional<Replacement>
Transformer::applyHistogram(const idioms::IdiomMatch &match)
{
    const Solution &sol = match.solution;
    LoopShape loop = loopFromSolution(sol, "");
    if (!loop.complete())
        return std::nullopt;

    const Value *new_value = sol.lookup("new_value");
    const Value *old_value = sol.lookup("old_value");
    const Value *index = sol.lookup("index");
    Value *bin_base = asValue(sol.lookup("bin_base"));
    if (!new_value || !old_value || !index || !bin_base)
        return std::nullopt;

    auto reads = sol.lookupArray("read_value[*]");
    std::vector<Value *> bases;
    for (size_t i = 0; i < reads.size(); ++i) {
        Value *base = asValue(sol.lookup(
            "read[" + std::to_string(i) + "].base_pointer"));
        if (!base)
            return std::nullopt;
        bases.push_back(base);
    }

    analysis::DomTree dom(match.function, false);
    analysis::LoopInfo loops(match.function, dom);
    const analysis::Loop *natural = findLoop(loops, loop);
    if (!natural || !loopIsSelfContained(*natural, nullptr))
        return std::nullopt;
    if (!loopEffectsAreCovered(
            *natural, {sol.lookup("store_instr")}, true)) {
        return std::nullopt;
    }
    for (Value *base : bases) {
        if (Instruction *inst = asInst(base)) {
            if (!dom.dominates(inst, loop.precursor))
                return std::nullopt;
        }
    }

    // Kernel computing the updated bin value from (reads..., old).
    std::vector<const Value *> val_inputs(reads.begin(), reads.end());
    val_inputs.push_back(old_value);
    auto val_kernel = extractKernel(
        module_, "__kernel_histo_val_" + std::to_string(counter_),
        new_value, loop.bodyBegin, val_inputs, dom, loop.precursor);
    if (!val_kernel)
        return std::nullopt;
    // Kernel computing the bin index from (reads...).
    std::vector<const Value *> idx_inputs(reads.begin(), reads.end());
    auto idx_kernel = extractKernel(
        module_, "__kernel_histo_idx_" + std::to_string(counter_),
        index, loop.bodyBegin, idx_inputs, dom, loop.precursor);
    if (!idx_kernel)
        return std::nullopt;

    auto &types = module_.types();
    std::vector<Type *> params{
        types.i64Ty(), types.i64Ty(),
        types.pointerTo(pointeeElement(bin_base))};
    for (Value *base : bases)
        params.push_back(types.pointerTo(pointeeElement(base)));
    for (const Value *inv : val_kernel->invariants)
        params.push_back(inv->type());
    for (const Value *inv : idx_kernel->invariants)
        params.push_back(inv->type());
    std::string name =
        "__hetero_histogram_" + std::to_string(counter_++);
    Function *callee =
        module_.createFunction(name, types.voidTy(), params);

    BasicBlock *tramp = bypassLoop(module_, loop);
    if (!tramp)
        return std::nullopt;
    Inserter ins(module_, tramp);
    std::vector<Value *> args{ins.toI64(loop.iterBegin),
                              ins.toI64(loop.iterEnd),
                              ins.decay(bin_base)};
    for (Value *base : bases)
        args.push_back(ins.decay(base));
    for (const Value *inv : val_kernel->invariants)
        args.push_back(asValue(inv));
    for (const Value *inv : idx_kernel->invariants)
        args.push_back(asValue(inv));
    ins.call(callee, args);

    Replacement rep;
    rep.kind = "histogram";
    rep.calleeName = name;
    rep.callee = callee;
    rep.kernel = val_kernel->func;
    rep.indexKernel = idx_kernel->func;
    rep.numReads = static_cast<int>(reads.size());
    rep.numInvariants =
        static_cast<int>(val_kernel->invariants.size());
    rep.numIndexInvariants =
        static_cast<int>(idx_kernel->invariants.size());
    for (const Value *r : reads)
        rep.readKinds.push_back(r->type()->kind());
    rep.elemKind = pointeeElement(bin_base)->kind();
    return rep;
}

std::optional<Replacement>
Transformer::applyStencil(const idioms::IdiomMatch &match, int dims)
{
    const Solution &sol = match.solution;
    LoopShape outer = loopFromSolution(
        sol, dims == 1 ? "" : "loop[0].");
    if (!outer.complete())
        return std::nullopt;

    const Value *write_value = sol.lookup("write.value");
    Value *write_base = asValue(sol.lookup("write.base_pointer"));
    if (!write_value || !write_base)
        return std::nullopt;

    auto reads = sol.lookupArray("read_value[*]");
    std::vector<Value *> bases;
    std::vector<int64_t> offsets;
    // The displaced index for dimension d of one read is bound to
    // "read[i].d<d>"; OffsetIndex helper variables live under
    // "read[i].off<d>.".
    auto offset_of =
        [&](const std::string &read_prefix,
            int d) -> std::optional<int64_t> {
        const Value *out =
            sol.lookup(read_prefix + ".d" + std::to_string(d));
        if (!out)
            return std::nullopt;
        const Instruction *inst = asInst(out);
        if (!inst || inst->is(Opcode::Phi))
            return 0; // the iterator itself ("same" branch)
        const Value *c = sol.lookup(read_prefix + ".off" +
                                    std::to_string(d) + ".offset");
        if (!c || !c->isConstant())
            return std::nullopt;
        int64_t off =
            static_cast<const ir::Constant *>(c)->intValue();
        return inst->is(Opcode::Sub) ? -off : off;
    };
    for (size_t i = 0; i < reads.size(); ++i) {
        std::string prefix = "read[" + std::to_string(i) + "]";
        Value *base = asValue(sol.lookup(prefix + ".base_pointer"));
        if (!base)
            return std::nullopt;
        bases.push_back(base);
        for (int d = 0; d < dims; ++d) {
            auto off = offset_of(prefix, d);
            if (!off)
                return std::nullopt;
            offsets.push_back(*off);
        }
    }

    // 3D strides must be shared between the write and every read.
    Value *s0 = nullptr;
    Value *s1 = nullptr;
    if (dims == 3) {
        s0 = asValue(sol.lookup("write.s0"));
        s1 = asValue(sol.lookup("write.s1"));
        if (!s0 || !s1)
            return std::nullopt;
        for (size_t i = 0; i < reads.size(); ++i) {
            std::string prefix = "read[" + std::to_string(i) + "]";
            if (sol.lookup(prefix + ".s0") != s0 ||
                sol.lookup(prefix + ".s1") != s1) {
                return std::nullopt;
            }
        }
    }

    analysis::DomTree dom(match.function, false);
    analysis::LoopInfo loops(match.function, dom);
    const analysis::Loop *natural = findLoop(loops, outer);
    if (!natural || !loopIsSelfContained(*natural, nullptr))
        return std::nullopt;
    if (!loopEffectsAreCovered(
            *natural, {sol.lookup("write.store_instr")}, true)) {
        return std::nullopt;
    }
    // A Jacobi-style stencil must not update in place.
    for (Value *base : bases) {
        if (base == write_base)
            return std::nullopt;
    }

    std::vector<const Value *> inputs(reads.begin(), reads.end());
    // The kernel region is the innermost loop body.
    Instruction *inner_begin = asInst(sol.lookup(
        dims == 1 ? "body_begin"
                  : "begin[" + std::to_string(dims - 1) + "]"));
    if (!inner_begin)
        return std::nullopt;
    auto extracted = extractKernel(
        module_, "__kernel_stencil_" + std::to_string(counter_),
        write_value, inner_begin, inputs, dom, outer.precursor);
    if (!extracted)
        return std::nullopt;

    auto &types = module_.types();
    Type *elem = pointeeElement(write_base);
    std::vector<Type *> params;
    for (int d = 0; d < dims; ++d) {
        params.push_back(types.i64Ty());
        params.push_back(types.i64Ty());
    }
    params.push_back(types.pointerTo(elem));
    if (dims == 3) {
        params.push_back(types.i64Ty());
        params.push_back(types.i64Ty());
    }
    for (Value *base : bases)
        params.push_back(types.pointerTo(pointeeElement(base)));
    for (const Value *inv : extracted->invariants)
        params.push_back(inv->type());
    std::string name = "__hetero_stencil" + std::to_string(dims) +
                       "d_" + std::to_string(counter_++);
    Function *callee =
        module_.createFunction(name, types.voidTy(), params);

    BasicBlock *tramp = bypassLoop(module_, outer);
    if (!tramp)
        return std::nullopt;
    Inserter ins(module_, tramp);
    std::vector<Value *> args;
    for (int d = 0; d < dims; ++d) {
        LoopShape shape =
            dims == 1 ? outer
                      : loopFromSolution(
                            sol, "loop[" + std::to_string(d) + "].");
        args.push_back(ins.toI64(shape.iterBegin));
        args.push_back(ins.toI64(shape.iterEnd));
    }
    args.push_back(ins.decay(write_base));
    if (dims == 3) {
        args.push_back(ins.toI64(s0));
        args.push_back(ins.toI64(s1));
    }
    for (Value *base : bases)
        args.push_back(ins.decay(base));
    for (const Value *inv : extracted->invariants)
        args.push_back(asValue(inv));
    ins.call(callee, args);

    Replacement rep;
    rep.kind = "stencil" + std::to_string(dims) + "d";
    rep.calleeName = name;
    rep.callee = callee;
    rep.kernel = extracted->func;
    rep.numReads = static_cast<int>(reads.size());
    rep.numInvariants = static_cast<int>(extracted->invariants.size());
    rep.readOffsets = offsets;
    rep.stencilDims = dims;
    for (const Value *r : reads)
        rep.readKinds.push_back(r->type()->kind());
    rep.elemKind = elem->kind();
    return rep;
}

} // namespace repro::transform
