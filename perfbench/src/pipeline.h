/**
 * @file
 * The matching pipeline as the benchmark drives it: the untraced
 * paths users take (one call per stage group, exactly as the
 * repository's own entry points chain them) and traced replicas that
 * split each entry point into the public functions it calls, timing
 * every call from here. The replicas are guarded: their output must
 * equal the single-call path's (perfbench/BENCHMARK.md, "Guards").
 */
#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include <memory>
#include <string>
#include <vector>

#include "benchmarks/suite.h"
#include "common.h"
#include "driver/driver.h"
#include "driver/match_cache.h"
#include "idioms/library.h"
#include "interp/interpreter.h"
#include "ir/function.h"
#include "support/diagnostics.h"
#include "transform/transform.h"

namespace perfbench {

namespace ir = repro::ir;
namespace idioms = repro::idioms;
namespace driver = repro::driver;
namespace transform = repro::transform;
namespace interp = repro::interp;
namespace benchmarks = repro::benchmarks;

/** Instructions of every defined function of @p module. */
uint64_t countInsts(const ir::Module &module);

/**
 * frontend::compileMiniC split into its public stages (parse,
 * codegen + unreachable-block removal, mem2reg, DCE, LICM, final
 * verify), each under its span, with IR sizes after codegen, mem2reg
 * and the last pass. Same return contract as compileMiniC.
 */
bool tracedCompile(const std::string &source, ir::Module &module,
                   repro::DiagEngine &diags, Layers &layers);

/**
 * Guard: the staged compile of @p source must print IR identical to
 * one compileMiniC call. Returns "" when identical.
 */
std::string checkCompileSplit(const std::string &source);

/**
 * IdiomDetector::detect replica: the five analyses built one by one,
 * then one solve per top-level idiom under its span with its
 * SolveStats, then the same subsumption. Adds the matches to
 * solver.matches. Sets @p degraded when any solve stopped early.
 */
std::vector<idioms::IdiomMatch> tracedDetect(ir::Function *func,
                                             Layers &layers,
                                             bool *degraded);

/** Per-function result of the cache-attached match replica. */
struct CachedFunctionResult
{
    std::string name;
    size_t matches = 0;
    bool fromCache = false;
};

/**
 * Cache-attached MatchingDriver::matchModule replica: per function,
 * look up (contentHash, idiomSetHash), replay on a usable entry,
 * otherwise tracedDetect and store the result. The whole loop is
 * cache.match_ms. Returns false when a solve degraded.
 */
bool tracedCachedMatch(ir::Module &module, driver::MatchCache &cache,
                       Layers &layers,
                       std::vector<CachedFunctionResult> *out);

/**
 * RewriteEngine::applyAll replica (plan, select, validate, commit
 * under their spans) with the engine's outcome counters.
 */
std::vector<transform::Replacement>
tracedRewrite(ir::Module &module,
              const std::vector<idioms::IdiomMatch> &matches,
              Layers &layers);

/** What one execution of a suite program left behind. */
struct Outputs
{
    interp::RuntimeValue ret;
    /** Watched double arrays then watched int arrays, raw bytes. */
    std::vector<uint8_t> watched;

    bool
    operator==(const Outputs &o) const
    {
        return interp::RuntimeValue::bitsEqual(ret, o.ret) &&
               watched == o.watched;
    }
};

/** Copy the watched arrays of @p inst out of @p mem. */
std::vector<uint8_t> watchedBytes(const interp::Memory &mem,
                                  const benchmarks::Instance &inst);

/**
 * Reference outputs of @p program: its original source compiled and
 * run by the tree-walking engine (Interpreter::runReference), never
 * by the bytecode engine under test.
 */
Outputs referenceOutputs(const benchmarks::BenchmarkProgram &program);

/**
 * Execute @p module's entry with @p replacements bound, on the
 * bytecode engine. With @p layers, the bytecode lowering of every
 * function is timed on its own (interp.lower_ms) and the run is
 * interp.exec_ms with its interp.steps.
 */
Outputs execute(ir::Module &module,
                const benchmarks::BenchmarkProgram &program,
                const std::vector<transform::Replacement> &replacements,
                Layers *layers);

/**
 * The negative self-test's defect: erase the last store of the
 * entry function of the rewritten module.
 */
void dropLastStore(ir::Module &module, const std::string &entry);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
