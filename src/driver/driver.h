/**
 * @file
 * Batched end-to-end idiom-matching driver.
 *
 * Every evaluation binary of the paper (Tables 1-3, Figures 16-19)
 * needs the same pipeline: compile MiniC to optimized SSA, run the
 * idiom library's constraint solver over every function, and
 * optionally apply the idiom-to-API transformations. The
 * MatchingDriver packages that pipeline behind one entry point,
 * caching the per-function analyses (dominators, loops, CFG,
 * candidate indices) so a batch over N idioms builds them once per
 * function instead of once per (function, idiom) pair, and
 * aggregating SolveStats so callers get the paper's search-effort
 * numbers without threading counters through their own loops.
 *
 * Matching is embarrassingly parallel across functions: solving
 * writes nothing outside per-function state (analyses, candidate
 * indices including the function's own value ids, solver stats), all
 * of which is owned by a single worker. The driver has one match
 * loop, a work-stealing shard pool (runParallelBatch; matchModule is
 * its one-module case), whose results are byte-identical for every
 * thread count. The guarantee is scoped per function: run at most one
 * matching pass over a given module at a time (two concurrent runs
 * would both build indices — and write ids — for the same functions).
 */
#ifndef DRIVER_DRIVER_H
#define DRIVER_DRIVER_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/function_analyses.h"
#include "benchmarks/suite.h"
#include "driver/match_cache.h"
#include "idioms/library.h"
#include "ir/verifier.h"
#include "solver/solver.h"
#include "transform/transform.h"

namespace repro::driver {

/** Pipeline configuration. */
struct DriverOptions
{
    /** Limits forwarded to every constraint solve. */
    solver::SolverLimits limits;
    /**
     * Run the idiom-to-API transformation stage after matching. The
     * report's match solutions then dangle into rewritten IR; see
     * MatchReport.
     */
    bool applyTransforms = false;
    /**
     * Cross-request match cache shared between drivers, service
     * requests and worker threads (see driver/match_cache.h). When
     * set, matchModule/runParallelBatch replay cached solve results
     * for any function whose contentHash is already stored instead of
     * re-solving it. Null (the default) preserves the pure batch
     * pipeline byte for byte.
     */
    std::shared_ptr<MatchCache> cache;
    /**
     * Pass-boundary IR verification (ir/verifier.h). Defaults to the
     * REPRO_VERIFY environment switch. With VerifyMode::Boundaries
     * the pipeline re-verifies the module after frontend compilation
     * (per optimization stage), after every rewrite-engine commit and
     * rollback, and before bytecode lowering in the execution harness
     * — throwing InternalError naming the first broken boundary.
     */
    ir::VerifyMode verify = ir::defaultVerifyMode();
    /**
     * How the transform stage picks each replacement's backend
     * (transform/transform.h). Fixed — the default — lowers every
     * idiom class to its historical host target, keeping Table 1
     * counts and every byte-parity test unchanged; CostModel ranks
     * all legal (API, platform) lowerings by the cost model
     * (runtime/cost.h) against the call site's static trip-count
     * workload estimate and commits the cheapest.
     */
    transform::BackendPolicy backendPolicy =
        transform::BackendPolicy::Fixed;
    /**
     * Force the backend of every replacement of a given kind ("gemm",
     * "spmv", ...), overriding the policy — the differential sweep's
     * way of driving each legal alternative through the pipeline.
     */
    std::map<std::string, runtime::BackendTarget> forcedBackends;
};

/** Matches and solver effort of one function. */
struct FunctionReport
{
    ir::Function *function = nullptr;
    std::vector<idioms::IdiomMatch> matches;
    /** Solver effort spent on this function alone. When the result
     *  was replayed from the match cache these are the stats of the
     *  original solve, so warm reports stay byte-identical to cold
     *  ones. */
    solver::SolveStats stats;
    /** Structural hash (only computed when a cache is attached). */
    uint64_t contentHash = 0;
    /** True when the result was replayed from the match cache. */
    bool fromCache = false;
    /**
     * Worst solve status across this function's idiom solves.
     * Non-Complete means the matches are valid but possibly
     * incomplete; such results are reported to the caller and NEVER
     * deposited into the match cache (a later resubmission re-solves
     * instead of replaying a truncated result). Replayed entries are
     * always Complete — degraded results are uncacheable.
     */
    solver::SolveStatus status = solver::SolveStatus::Complete;
};

/**
 * Result of one batched run over a module.
 *
 * When the run applied transformations, the matches' solution
 * bindings may reference IR the rewriting stage has since erased:
 * use them for counting/classification only and take the surviving
 * structure from `replacements`.
 */
struct MatchReport
{
    std::vector<FunctionReport> functions;
    /** Replacements performed (empty unless applyTransforms). */
    std::vector<transform::Replacement> replacements;
    /** Solver effort summed over the whole batch (replayed functions
     *  contribute their original solve's stats). */
    solver::SolveStats totals;
    /** Functions replayed from / missed in the match cache. Both stay
     *  zero when no cache is attached. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    /** Worst per-function solve status (see FunctionReport::status). */
    solver::SolveStatus status = solver::SolveStatus::Complete;

    /** True when some solve stopped at a budget/deadline limit. */
    bool degraded() const
    {
        return status != solver::SolveStatus::Complete;
    }

    /** All matches flattened in module order. */
    std::vector<idioms::IdiomMatch> allMatches() const;

    /** Total number of matches across all functions. */
    size_t matchCount() const;
};

/**
 * Differential execution record of one benchmark program, produced by
 * MatchingDriver::verifyTransform. The harness runs the original and
 * the transformed program on identically seeded heaps, each under
 * both execution engines (bytecode Interpreter::run and tree-walking
 * Interpreter::runReference), and requires:
 *
 *  - byte-identical final heaps, return values, Profile counts and
 *    per-natural-loop dynamic instruction counts between the two
 *    engines, for the original and the transformed program alike; and
 *  - byte-identical watched output arrays and return values between
 *    the original and the transformed program (the paper's Figure 1
 *    claim: replacing idioms with heterogeneous API calls preserves
 *    results).
 */
struct TransformVerification
{
    std::string name;
    /** Idiom matches found / replacements actually applied. */
    size_t matches = 0;
    size_t replacements = 0;
    /** Natural loops whose dynamic counts were compared per engine. */
    size_t loopsCompared = 0;
    /** Dynamic instructions of the original / transformed program
     *  (reference engine; the bytecode engine must agree exactly). */
    uint64_t originalSteps = 0;
    uint64_t transformedSteps = 0;
    /** First mismatch description; empty when everything agreed. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/** Raw solve of one lowered constraint program (ablation studies). */
struct SolveOutcome
{
    std::vector<solver::Solution> solutions;
    solver::SolveStats stats;
    /** Wall-clock of the search itself, excluding solver setup. */
    double solveMillis = 0.0;
};

/**
 * The matching pipeline. One driver instance owns a per-function
 * analysis cache serving matchFunction, matchOne and solveProgram
 * (the module-level match loop gives every shard its own analyses);
 * reusing the instance across those calls reuses the analyses as long
 * as the underlying functions are not mutated. Entries are guarded by
 * the function's contentHash(): a mutated (or recompiled-in-place)
 * function is detected on the next analysesFor and its stale
 * dominators/loops/CandidateIndex are rebuilt instead of served.
 *
 * The analysis cache holds raw pointers into one module.
 * compileAndMatch starts by dropping it, and analysesFor drops it
 * when handed a function of a different live module; but
 * when a module is destroyed and the driver then matches functions of
 * a NEW module, call invalidateAll() first — address recycling can
 * defeat the pointer-identity guard.
 *
 * With a MatchCache attached (DriverOptions::cache), matchModule and
 * runParallelBatch become incremental across requests: each
 * function's solve result is stored portably
 * under (contentHash, idiomSetHash), and any later function hashing
 * equal — the same function resubmitted, or the same body from
 * another client — replays the stored matches re-anchored onto its
 * own IR instead of re-solving. Replayed functions contribute their
 * original SolveStats to the report (keeping warm reports
 * byte-identical to cold ones) but not to totals(), which keeps
 * counting real solver effort only. matchFunction/matchOne/
 * solveProgram bypass the cache: their keys (single idiom, ad-hoc
 * program) live outside the full-idiom-set key space.
 */
class MatchingDriver
{
  public:
    explicit MatchingDriver(DriverOptions opts = {});

    /**
     * Full pipeline: compile @p source into @p module (parse, codegen,
     * mem2reg, LICM, DCE), then matchModule with @p numThreads.
     * Throws FatalError on compilation failure.
     */
    MatchReport compileAndMatch(const std::string &source,
                                ir::Module &module,
                                unsigned numThreads = 1);

    /**
     * Batch-match every defined function of an existing module: the
     * one-module case of runParallelBatch. With @p numThreads == 1
     * (the default) the single worker runs inline on the calling
     * thread.
     */
    MatchReport matchModule(ir::Module &module, unsigned numThreads = 1);

    /**
     * The match loop. Every defined function of @p modules becomes a
     * shard on one work-stealing queue drained by @p numThreads
     * workers (0 = hardware concurrency, 1 = inline on the calling
     * thread) — the right shape when every module has few functions
     * (each of the paper's 21 benchmark programs compiles to a
     * single-function module). Each shard builds its own
     * FunctionAnalyses and each worker keeps a private SolveStats
     * accumulator, merged at join, so the match sets, per-function
     * stats and totals are identical for every thread count and
     * reported in @p modules order regardless of scheduling. The
     * optional transformation stage runs after the join through
     * applyAllParallel (one rewrite engine per module on the same
     * pool).
     */
    std::vector<MatchReport>
    runParallelBatch(const std::vector<ir::Module *> &modules,
                     unsigned numThreads = 0);

    /**
     * Parallel transform stage: module @p i becomes one shard on the
     * same work-stealing pool the parallel matcher uses, and a fresh
     * transactional Transformer applies @p matches[i] to it
     * (plan → resolve overlaps → validate → commit; see
     * transform/rewrite.h). Modules are fully independent — planning
     * and commit for different modules run concurrently — while
     * within one module the engine plans in match order, so the
     * replacement lists are byte-identical to the serial stage and
     * returned in @p modules order regardless of scheduling.
     * Throws FatalError when the two vectors disagree in size.
     */
    std::vector<std::vector<transform::Replacement>>
    applyAllParallel(
        const std::vector<ir::Module *> &modules,
        const std::vector<std::vector<idioms::IdiomMatch>> &matches,
        unsigned numThreads = 0);

    /**
     * Differentially verify one benchmark program end to end
     * (match -> transform -> bind -> execute); see
     * TransformVerification for the exact contract. Self-contained:
     * compiles private modules and drivers, never touches this
     * instance's analysis cache (only the options are read), so it is
     * safe to call concurrently from many workers.
     *
     * @p tamper, when set, mutates the transformed module after
     * match + rewrite but before any execution. The negative-oracle
     * tests drive it to prove the differential harness can actually
     * fail — a deliberately broken transformation (say, a dropped
     * store) must surface as a non-empty error, otherwise the
     * 21-program green run proves nothing.
     */
    TransformVerification
    verifyTransform(const benchmarks::BenchmarkProgram &program,
                    const std::function<void(ir::Module &)> &tamper =
                        nullptr) const;

    /**
     * verifyTransform over the whole NAS/Parboil suite: the programs
     * become shards on the match loop's work-stealing pool
     * (0 = hardware concurrency, 1 = inline). Results are written to
     * slots preassigned in suite order, so they are identical for
     * every thread count.
     */
    std::vector<TransformVerification>
    verifyTransforms(unsigned numThreads = 1) const;

    /** Match one function, all top-level idioms, with subsumption. */
    std::vector<idioms::IdiomMatch> matchFunction(ir::Function *func);

    /** Match one named idiom against one function (no subsumption). */
    std::vector<idioms::IdiomMatch>
    matchOne(ir::Function *func, const std::string &idiom);

    /**
     * Solve an already lowered constraint program against a function,
     * reusing cached analyses. Used by ablations that perturb the
     * program before solving.
     */
    SolveOutcome solveProgram(ir::Function *func,
                              const solver::ConstraintProgram &program);

    /**
     * The cached analyses of @p func (built on first request). The
     * cache is scoped to one module at a time: requesting a function
     * of a different module drops all entries, since function
     * addresses can be recycled across module lifetimes.
     */
    analysis::FunctionAnalyses &analysesFor(ir::Function *func);

    /** Drop cached analyses after @p func is mutated. */
    void invalidate(ir::Function *func);

    /** Drop the entire analysis cache. */
    void invalidateAll();

    /** Solver effort accumulated over the driver's lifetime. Cache
     *  replays do not count: this is real search work only. */
    const solver::SolveStats &totals() const { return totals_; }

    const DriverOptions &options() const { return opts_; }

  private:
    void accumulate(const solver::SolveStats &delta);

    /**
     * Replay @p func's cached solve result into @p fr if the attached
     * cache holds its (contentHash, idiomSetHash) key and the entry
     * re-anchors cleanly. Counts the cache hit/miss. Requires
     * fr->contentHash to be set.
     */
    bool tryReplay(ir::Function *func, FunctionReport *fr);

    /**
     * Store @p fr's freshly solved matches in the attached cache.
     * Functions whose bindings cannot be encoded portably are left
     * uncached.
     */
    void storeSolveResult(ir::Function *func, const FunctionReport &fr);

    /**
     * The shard engine: drain (function, report slot) work items
     * with @p numThreads workers and return the merged per-worker
     * stats. Slot pointers must stay stable for the whole call.
     */
    solver::SolveStats
    matchShards(const std::vector<std::pair<ir::Function *,
                                            FunctionReport *>> &items,
                unsigned numThreads);

    /** One analysis-cache slot, guarded by the content hash it was
     *  built for. */
    struct AnalysesSlot
    {
        uint64_t hash = 0;
        std::shared_ptr<analysis::FunctionAnalyses> analyses;
    };

    DriverOptions opts_;
    solver::SolveStats totals_;
    /** Module the cached analyses belong to. */
    const ir::Module *module_ = nullptr;
    std::map<ir::Function *, AnalysesSlot> cache_;
};

} // namespace repro::driver

#endif // DRIVER_DRIVER_H
