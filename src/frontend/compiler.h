/**
 * @file
 * One-call MiniC compilation driver: parse, generate IR, remove
 * unreachable code, promote scalars to SSA and clean up.
 */
#ifndef FRONTEND_COMPILER_H
#define FRONTEND_COMPILER_H

#include <string>

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

/** Convenience wrapper that throws FatalError on failure. */
void compileMiniCOrDie(const std::string &source, ir::Module &module,
                       ir::VerifyMode verify = ir::defaultVerifyMode());

} // namespace repro::frontend

#endif // FRONTEND_COMPILER_H
