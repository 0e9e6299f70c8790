#include "pipeline.h"

#include <set>

#include "frontend/codegen.h"
#include "frontend/compiler.h"
#include "frontend/licm.h"
#include "frontend/mem2reg.h"
#include "frontend/parser.h"
#include "frontend/passes.h"
#include "interp/builtins.h"
#include "interp/compiled.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "transform/binder.h"
#include "transform/rewrite.h"

namespace perfbench {

namespace frontend = repro::frontend;
namespace solver = repro::solver;

uint64_t
countInsts(const ir::Module &module)
{
    uint64_t n = 0;
    for (const auto &f : module.functions()) {
        for (const auto &bb : f->blocks())
            n += bb->insts().size();
    }
    return n;
}

bool
tracedCompile(const std::string &source, ir::Module &module,
              repro::DiagEngine &diags, Layers &layers)
{
    auto unit = layers.span("frontend.parse_ms", [&] {
        return frontend::parseMiniC(source, diags);
    });
    if (!unit)
        return false;
    const bool generated = layers.span("frontend.codegen_ms", [&] {
        if (!frontend::generateIR(*unit, module, diags))
            return false;
        for (const auto &f : module.functions())
            frontend::removeUnreachableBlocks(f.get());
        return true;
    });
    if (!generated)
        return false;
    layers.add("frontend.ir_insts.codegen",
               static_cast<double>(countInsts(module)));
    layers.span("frontend.mem2reg_ms",
                [&] { frontend::promoteModule(module); });
    layers.add("frontend.ir_insts.mem2reg",
               static_cast<double>(countInsts(module)));
    // compileMiniC interleaves the two passes per function.
    for (const auto &f : module.functions()) {
        layers.span("frontend.dce_ms",
                    [&] { frontend::aggressiveDCE(f.get()); });
        layers.span("frontend.licm_ms",
                    [&] { frontend::optimizeFunction(f.get()); });
    }
    layers.add("frontend.ir_insts.final",
               static_cast<double>(countInsts(module)));
    auto problems = layers.span("ir.verify_final_ms",
                                [&] { return ir::verifyModule(module); });
    for (const auto &p : problems)
        diags.error({}, "invalid IR after lowering: " + p);
    return problems.empty();
}

std::string
checkCompileSplit(const std::string &source)
{
    ir::Module whole, staged;
    repro::DiagEngine d1, d2;
    Layers scratch;
    const bool ok1 = frontend::compileMiniC(source, whole, d1);
    const bool ok2 = tracedCompile(source, staged, d2, scratch);
    if (ok1 != ok2)
        return "staged compile disagrees on success";
    if (!ok1)
        return "source does not compile: " + d1.dump();
    if (ir::printModule(whole) != ir::printModule(staged))
        return "staged compile prints different IR";
    return "";
}

namespace {

/** The analyses every idiom solve reads, built one at a time. */
void
buildAnalyses(repro::analysis::FunctionAnalyses &fa, Layers &layers)
{
    layers.span("analysis.cfg_ms", [&] { fa.cfg(); });
    layers.span("analysis.dom_ms", [&] { fa.domTree(); });
    layers.span("analysis.postdom_ms", [&] { fa.postDomTree(); });
    layers.span("analysis.loops_ms", [&] { fa.loopInfo(); });
    layers.span("analysis.candidate_index_ms",
                [&] { fa.candidateIndex(); });
}

} // namespace

std::vector<idioms::IdiomMatch>
tracedDetect(ir::Function *func, Layers &layers, bool *degraded)
{
    repro::analysis::FunctionAnalyses fa(func);
    buildAnalyses(fa, layers);

    // IdiomDetector::detect, one idiom at a time so each solve gets
    // its own span and SolveStats.
    std::vector<idioms::IdiomMatch> all;
    std::set<const ir::Value *> claimed;
    for (const std::string &idiom : idioms::topLevelIdioms()) {
        idioms::IdiomDetector detector;
        auto matches = layers.span("solver." + idiom + "_ms", [&] {
            return detector.detectOne(func, idiom, fa);
        });
        const solver::SolveStats &st = detector.stats();
        layers.add("solver." + idiom + ".assignments",
                   static_cast<double>(st.assignments));
        layers.add("solver." + idiom + ".checks",
                   static_cast<double>(st.checks));
        layers.add("solver." + idiom + ".solutions",
                   static_cast<double>(st.solutions));
        if (detector.status() != solver::SolveStatus::Complete)
            *degraded = true;
        for (auto &m : matches) {
            bool subsumed = false;
            if (m.cls == idioms::IdiomClass::ScalarReduction ||
                m.cls == idioms::IdiomClass::HistogramReduction ||
                m.cls == idioms::IdiomClass::Stencil) {
                for (const auto &var : idioms::idiomClaimVars(m.idiom)) {
                    const ir::Value *loop = m.solution.lookup(var);
                    if (loop && claimed.count(loop)) {
                        subsumed = true;
                        break;
                    }
                }
                if (m.cls == idioms::IdiomClass::ScalarReduction) {
                    const ir::Value *loop =
                        m.solution.lookup("comparison");
                    if (loop && claimed.count(loop))
                        subsumed = true;
                }
            }
            if (subsumed)
                continue;
            for (const auto &var : idioms::idiomClaimVars(m.idiom)) {
                if (const ir::Value *loop = m.solution.lookup(var))
                    claimed.insert(loop);
            }
            all.push_back(std::move(m));
        }
    }
    layers.add("solver.matches", static_cast<double>(all.size()));
    return all;
}

bool
tracedCachedMatch(ir::Module &module, driver::MatchCache &cache,
                  Layers &layers, std::vector<CachedFunctionResult> *out)
{
    bool degraded = false;
    const uint64_t setHash = idioms::idiomSetHash();
    layers.span("cache.match_ms", [&] {
        for (const auto &f : module.functions()) {
            if (f->isDeclaration())
                continue;
            CachedFunctionResult r;
            r.name = f->name();
            const driver::CacheKey key{f->contentHash(), setHash};
            std::vector<idioms::IdiomMatch> matches;
            auto entry = cache.lookup(key);
            if (entry &&
                entry->signature ==
                    driver::MatchCache::signatureOf(f.get()) &&
                driver::MatchCache::reanchor(entry->matches, f.get(),
                                             &matches)) {
                cache.countHit();
                r.fromCache = true;
            } else {
                cache.countMiss();
                bool fnDegraded = false;
                matches = tracedDetect(f.get(), layers, &fnDegraded);
                degraded = degraded || fnDegraded;
                driver::CachedMatches stored;
                if (!fnDegraded &&
                    driver::MatchCache::capture(matches, f.get(),
                                                &stored.matches)) {
                    stored.signature =
                        driver::MatchCache::signatureOf(f.get());
                    cache.insert(key, std::move(stored));
                }
            }
            r.matches = matches.size();
            out->push_back(std::move(r));
        }
    });
    return !degraded;
}

std::vector<transform::Replacement>
tracedRewrite(ir::Module &module,
              const std::vector<idioms::IdiomMatch> &matches,
              Layers &layers)
{
    transform::RewriteEngine engine(module, ir::VerifyMode::Off,
                                    transform::BackendConfig());
    auto plans = layers.span("transform.plan_ms", [&] {
        auto p = engine.planAll(matches);
        for (auto &h : engine.planHardenAll(matches.size()))
            p.push_back(std::move(h));
        return p;
    });
    plans = layers.span("transform.select_ms", [&] {
        return engine.resolveOverlaps(std::move(plans));
    });
    size_t failedValidation = 0;
    std::vector<transform::RewritePlan> valid;
    layers.span("transform.validate_ms", [&] {
        for (auto &plan : plans) {
            if (engine.validate(plan).empty())
                valid.push_back(std::move(plan));
            else
                ++failedValidation;
        }
    });
    auto replacements = layers.span("transform.commit_ms", [&] {
        return engine.commit(std::move(valid));
    });
    const auto &st = engine.stats();
    layers.add("transform.planned", static_cast<double>(st.planned));
    layers.add("transform.unplannable",
               static_cast<double>(st.unplannable));
    layers.add("transform.dropped_overlap",
               static_cast<double>(st.droppedOverlap));
    // RewriteEngine::applyAll counts validation failures itself; the
    // replica calls validate() directly, so it counts them here.
    layers.add("transform.failed_validation",
               static_cast<double>(failedValidation));
    layers.add("transform.committed", static_cast<double>(st.committed));
    layers.add("transform.rolled_back",
               static_cast<double>(st.rolledBack));
    return replacements;
}

std::vector<uint8_t>
watchedBytes(const interp::Memory &mem, const benchmarks::Instance &inst)
{
    std::vector<uint8_t> out;
    auto append = [&](uint64_t addr, uint64_t len) {
        interp::Memory::RawSpan span(mem, addr, len);
        out.insert(out.end(), span.data(), span.data() + span.size());
    };
    for (const auto &[addr, count] : inst.watchDoubles)
        append(addr, 8 * static_cast<uint64_t>(count));
    for (const auto &[addr, count] : inst.watchInts)
        append(addr, 4 * static_cast<uint64_t>(count));
    return out;
}

Outputs
referenceOutputs(const benchmarks::BenchmarkProgram &program)
{
    ir::Module module;
    frontend::compileMiniCOrDie(program.source, module);
    interp::Memory mem;
    interp::Interpreter in(module, mem);
    interp::registerMathBuiltins(in);
    benchmarks::Instance inst = program.setup(mem);
    Outputs o;
    o.ret = in.runReference(module.functionByName(program.entry),
                            inst.args);
    o.watched = watchedBytes(mem, inst);
    return o;
}

Outputs
execute(ir::Module &module, const benchmarks::BenchmarkProgram &program,
        const std::vector<transform::Replacement> &replacements,
        Layers *layers)
{
    if (layers) {
        // The same lowering Interpreter::run performs lazily on first
        // call, done once more on its own so its cost is visible;
        // interp.exec_ms below still contains the run's own lowering.
        layers->span("interp.lower_ms", [&] {
            for (const auto &f : module.functions()) {
                if (f->isDeclaration())
                    continue;
                interp::CompiledFunction lowered(*f);
                (void)lowered;
            }
        });
    }
    interp::Memory mem;
    interp::Interpreter in(module, mem);
    interp::registerMathBuiltins(in);
    transform::bindReplacements(in, replacements);
    benchmarks::Instance inst = program.setup(mem);
    ir::Function *entry = module.functionByName(program.entry);
    Outputs o;
    if (layers) {
        o.ret = layers->span("interp.exec_ms",
                             [&] { return in.run(entry, inst.args); });
        layers->add("interp.steps",
                    static_cast<double>(in.stepsExecuted()));
    } else {
        o.ret = in.run(entry, inst.args);
    }
    o.watched = watchedBytes(mem, inst);
    return o;
}

void
dropLastStore(ir::Module &module, const std::string &entry)
{
    ir::Function *fn = module.functionByName(entry);
    ir::Instruction *victim = nullptr;
    for (const auto &bb : fn->blocks()) {
        for (const auto &inst : bb->insts()) {
            if (inst->opcode() == ir::Opcode::Store)
                victim = inst.get();
        }
    }
    if (victim)
        victim->parent()->erase(victim);
}

} // namespace perfbench
