/**
 * @file
 * One-call MiniC compilation driver: parse, generate IR, remove
 * unreachable code, promote scalars to SSA and clean up.
 *
 * An edit session compiles incrementally: it keeps its last
 * successful compile as a CompiledModule and hands it to the next
 * compileMiniC, which copies the optimized IR of every function that
 * did not change instead of compiling it again.
 */
#ifndef FRONTEND_COMPILER_H
#define FRONTEND_COMPILER_H

#include <string>
#include <vector>

#include "ir/function.h"
#include "ir/verifier.h"
#include "support/diagnostics.h"

namespace repro::frontend {

/**
 * Compile MiniC @p source into @p module (optimized SSA form).
 * Returns false and fills @p diags on any error.
 *
 * The dominance-aware IR verifier always checks the final module
 * once; an error-tier finding fails the compile with an "invalid IR
 * after lowering: rule=..." diagnostic. With @p verify ==
 * VerifyMode::Boundaries it additionally runs after codegen
 * ("frontend-codegen") and after mem2reg ("frontend-mem2reg"), and
 * the final check throws instead ("frontend-optimize"): each throws
 * InternalError naming the boundary on the first defect, pinpointing
 * which stage broke the module.
 */
bool compileMiniC(const std::string &source, ir::Module &module,
                  DiagEngine &diags,
                  ir::VerifyMode verify = ir::defaultVerifyMode());

/**
 * A successful compile together with what each of its functions was
 * compiled from: what a later compile of an edited source compares
 * against.
 */
struct CompiledModule
{
    ir::Module module;
    /**
     * The declaration context: every global's name and type, then
     * every function's name, IR type and attributes, in module order.
     */
    std::string declarations;
    /**
     * Per function of the module, by index: the exact source text of
     * its definition. Empty for builtins and declarations, which are
     * never reused.
     */
    std::vector<std::string> definitions;
    /** Functions this compile generated and copied, respectively. */
    size_t compiled = 0;
    size_t reused = 0;
};

/**
 * Compile @p source into @p out.module, reusing @p previous (may be
 * null; never @p out itself).
 *
 * A function is reused when its definition's source text and the
 * module's declaration context both equal @p previous's: its
 * optimized IR is copied from @p previous->module
 * (ir::cloneFunctionBody), and only the other functions go through
 * codegen, mem2reg, DCE and LICM. The IR of a function depends on
 * nothing else, so the module prints exactly as a fresh compile's.
 * Verification is as above and still covers the whole module. On
 * failure @p out is unusable and @p previous is untouched.
 */
bool compileMiniC(const std::string &source, CompiledModule &out,
                  DiagEngine &diags, const CompiledModule *previous,
                  ir::VerifyMode verify = ir::defaultVerifyMode());

/** Convenience wrapper that throws FatalError on failure. */
void compileMiniCOrDie(const std::string &source, ir::Module &module,
                       ir::VerifyMode verify = ir::defaultVerifyMode());

} // namespace repro::frontend

#endif // FRONTEND_COMPILER_H
