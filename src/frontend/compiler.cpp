#include "frontend/compiler.h"

#include <map>
#include <set>

#include "frontend/codegen.h"
#include "frontend/licm.h"
#include "frontend/mem2reg.h"
#include "frontend/parser.h"
#include "frontend/passes.h"
#include "ir/clone.h"
#include "ir/verifier.h"

namespace repro::frontend {

namespace {

/** CompiledModule::declarations of a declared @p module. */
std::string
declarationContext(const ir::Module &module)
{
    std::string key;
    for (const auto &g : module.globals())
        key += "global " + g->name() + " " + g->storedType()->str() + "\n";
    for (const auto &f : module.functions()) {
        key += "function " + f->name() + " " + f->functionType()->str();
        for (const auto &attr : f->attributes())
            key += " " + attr;
        key += "\n";
    }
    return key;
}

/** CompiledModule::definitions of @p unit declared into @p module. */
std::vector<std::string>
definitionSources(const TranslationUnit &unit, const ir::Module &module,
                  const std::string &source)
{
    // declareIR rejected every second definition of a name.
    std::map<std::string, const FunctionDecl *> byName;
    for (const auto &f : unit.functions) {
        if (f->body)
            byName.emplace(f->name, f.get());
    }
    std::vector<std::string> out;
    out.reserve(module.functions().size());
    for (const auto &f : module.functions()) {
        auto it = byName.find(f->name());
        if (it == byName.end()) {
            out.emplace_back();
            continue;
        }
        const FunctionDecl &d = *it->second;
        out.push_back(
            source.substr(d.sourceBegin, d.sourceEnd - d.sourceBegin));
    }
    return out;
}

/**
 * The one compile path. With @p record, also fills its keys and
 * counts, and copies every function @p previous allows instead of
 * compiling it.
 */
bool
compile(const std::string &source, ir::Module &module, DiagEngine &diags,
        ir::VerifyMode verify, const CompiledModule *previous,
        CompiledModule *record)
{
    const bool boundaries = verify == ir::VerifyMode::Boundaries;
    auto unit = parseMiniC(source, diags);
    if (!unit || !declareIR(*unit, module, diags))
        return false;

    std::set<const ir::Function *> reused;
    if (record) {
        record->declarations = declarationContext(module);
        record->definitions = definitionSources(*unit, module, source);
        if (previous && previous->declarations == record->declarations) {
            const auto &from = previous->module.functions();
            const auto &to = module.functions();
            for (size_t i = 0; i < to.size(); ++i) {
                const std::string &def = record->definitions[i];
                if (def.empty() || def != previous->definitions[i])
                    continue;
                ir::cloneFunctionBody(*from[i], *to[i]);
                reused.insert(to[i].get());
            }
        }
    }
    if (!defineIR(*unit, module, diags, reused))
        return false;
    std::vector<ir::Function *> compiled;
    for (const auto &f : module.functions()) {
        if (!f->isDeclaration() && !reused.count(f.get()))
            compiled.push_back(f.get());
    }
    if (record) {
        record->compiled = compiled.size();
        record->reused = reused.size();
    }

    for (ir::Function *f : compiled)
        removeUnreachableBlocks(f);
    if (boundaries)
        ir::verifyOrThrow(module, "frontend-codegen");
    for (ir::Function *f : compiled)
        promoteAllocas(f);
    if (boundaries)
        ir::verifyOrThrow(module, "frontend-mem2reg");
    for (ir::Function *f : compiled) {
        aggressiveDCE(f);
        optimizeFunction(f);
    }

    // The final check runs in every mode, once, over the whole module.
    // Under Boundaries a defect is a bug in the passes above and
    // throws at the "frontend-optimize" boundary; otherwise each
    // error-tier finding becomes a compile error carrying its rule id.
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

} // namespace

bool
compileMiniC(const std::string &source, ir::Module &module,
             DiagEngine &diags, ir::VerifyMode verify)
{
    return compile(source, module, diags, verify, nullptr, nullptr);
}

bool
compileMiniC(const std::string &source, CompiledModule &out,
             DiagEngine &diags, const CompiledModule *previous,
             ir::VerifyMode verify)
{
    return compile(source, out.module, diags, verify, previous, &out);
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
