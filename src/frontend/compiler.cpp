#include "frontend/compiler.h"

#include "frontend/codegen.h"
#include "frontend/licm.h"
#include "frontend/mem2reg.h"
#include "frontend/parser.h"
#include "frontend/passes.h"
#include "ir/verifier.h"

namespace repro::frontend {

bool
compileMiniC(const std::string &source, ir::Module &module,
             DiagEngine &diags, ir::VerifyMode verify)
{
    const bool boundaries = verify == ir::VerifyMode::Boundaries;
    auto unit = parseMiniC(source, diags);
    if (!unit)
        return false;
    if (!generateIR(*unit, module, diags))
        return false;
    for (const auto &f : module.functions())
        removeUnreachableBlocks(f.get());
    if (boundaries)
        ir::verifyOrThrow(module, "frontend-codegen");
    promoteModule(module);
    if (boundaries)
        ir::verifyOrThrow(module, "frontend-mem2reg");
    for (const auto &f : module.functions()) {
        aggressiveDCE(f.get());
        optimizeFunction(f.get());
    }

    // The final check runs in every mode, once. Under Boundaries a
    // defect is a bug in the passes above and throws at the
    // "frontend-optimize" boundary; otherwise each error-tier finding
    // becomes a compile error carrying its rule id.
    ir::VerifierReport report = ir::verifyModuleDetailed(module);
    if (boundaries && !report.ok())
        throw InternalError(
            "IR verification failed at boundary 'frontend-optimize':\n" +
            report.str());
    for (const auto &d : report.diags) {
        if (d.severity == ir::VerifySeverity::Error)
            diags.error({}, "invalid IR after lowering: " + d.str());
    }
    return report.ok();
}

void
compileMiniCOrDie(const std::string &source, ir::Module &module,
                  ir::VerifyMode verify)
{
    DiagEngine diags;
    if (!compileMiniC(source, module, diags, verify))
        throw FatalError("MiniC compilation failed:\n" + diags.dump());
}

} // namespace repro::frontend
