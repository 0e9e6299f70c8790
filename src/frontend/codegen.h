/**
 * @file
 * MiniC to SSA IR code generation.
 *
 * Lowering follows the clang/LLVM recipe: every local lives in an
 * alloca, control flow becomes explicit blocks, and a subsequent
 * mem2reg pass (mem2reg.h) promotes scalars into SSA registers with
 * phi nodes — producing IR of the shape shown in Figure 4 of the
 * paper.
 */
#ifndef FRONTEND_CODEGEN_H
#define FRONTEND_CODEGEN_H

#include <set>

#include "frontend/ast.h"
#include "ir/function.h"

namespace repro::frontend {

/**
 * Generate IR for @p unit into @p module. Returns false and fills
 * @p diags on semantic errors (unknown names, bad types).
 */
bool generateIR(const TranslationUnit &unit, ir::Module &module,
                DiagEngine &diags);

/**
 * generateIR's first step: builtins, globals and every function's
 * signature, argument names and attributes, but no body. A name
 * declared twice keeps its first declaration.
 */
bool declareIR(const TranslationUnit &unit, ir::Module &module,
               DiagEngine &diags);

/**
 * generateIR's second step, over a module declareIR filled: the body
 * of every definition whose function is not in @p skip. Definitions
 * sharing a name all go into that name's one function.
 */
bool defineIR(const TranslationUnit &unit, ir::Module &module,
              DiagEngine &diags,
              const std::set<const ir::Function *> &skip = {});

} // namespace repro::frontend

#endif // FRONTEND_CODEGEN_H
