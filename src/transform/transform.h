/**
 * @file
 * Idiom-to-API transformation (section 6 of the paper).
 *
 * A detected idiom solution drives surgery on the IR: the matched
 * loop (nest) is bypassed, a call to a heterogeneous API entry point
 * is inserted in its place, and — for DSL-backed idioms — the loop
 * body's kernel function is extracted into a fresh IR function that
 * the runtime skeleton invokes per element.
 *
 * Since the transactional rework, all rewriting is staged through the
 * RewriteEngine (rewrite.h): matches are planned purely, overlapping
 * block claims are resolved most-specific-first, every plan is
 * validated against the live IR, and mutation happens in one
 * per-function-atomic commit with cleanup passes run once at the end.
 * The legacy one-match-at-a-time path survives as
 * Transformer::applyAllReference for differential testing only.
 */
#ifndef TRANSFORM_TRANSFORM_H
#define TRANSFORM_TRANSFORM_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "idioms/library.h"
#include "ir/function.h"
#include "runtime/cost.h"

namespace repro::transform {

/**
 * How the engine picks the backend of each replacement.
 *
 * Fixed (the default) lowers every idiom class to its historical
 * host target (runtime::fixedTarget) — byte-identical to the
 * pre-selection transform stack, so Table 1 counts and all parity
 * tests are unaffected. CostModel plans every legal (API, platform)
 * lowering, prices each against the call site's workload descriptor
 * and commits the cheapest (docs/BACKENDS.md).
 */
enum class BackendPolicy
{
    Fixed,
    CostModel,
};

/** Backend-selection inputs threaded through the transform stack. */
struct BackendConfig
{
    BackendPolicy policy = BackendPolicy::Fixed;

    /**
     * Force the target of every plan of a given kind ("gemm",
     * "spmv", ...), overriding the policy. The differential
     * verification sweep uses this to drive each legal alternative
     * through the full pipeline.
     */
    std::map<std::string, runtime::BackendTarget> forced;
};

/** Record of one applied replacement. */
struct Replacement
{
    std::string kind;        ///< "spmv" | "gemm" | "reduce" | ...
    std::string calleeName;  ///< the inserted API entry point
    ir::Function *callee = nullptr;
    ir::Function *kernel = nullptr;      ///< extracted kernel
    ir::Function *indexKernel = nullptr; ///< histogram index kernel
    int numReads = 0;
    int numInvariants = 0;
    /** Histogram: trailing invariants of the index kernel. */
    int numIndexInvariants = 0;
    /** Element type kinds of the collected reads, in order. */
    std::vector<ir::Type::Kind> readKinds;
    /** Stencil: flattened per-read offsets (innermost first). */
    std::vector<int64_t> readOffsets;
    int stencilDims = 0;
    /** Value kind of the accumulator / stored element. */
    ir::Type::Kind elemKind = ir::Type::Kind::Double;

    /** Idiom class of the source match. */
    idioms::IdiomClass cls = idioms::IdiomClass::Other;
    /** The backend this call site was lowered to. */
    runtime::BackendTarget target;
    /**
     * Legal alternatives the selection stage rejected, ranked by
     * ascending predicted cost. Empty under BackendPolicy::Fixed.
     */
    std::vector<runtime::BackendTarget> rejected;
    /** Costs were modeled (CostModel policy); Fixed leaves 0s. */
    bool costModeled = false;
};

/**
 * The legacy reference transformer. Replacements that the
 * translation schemes cannot express (e.g. kernels with internal
 * control flow that does not reduce to selects) are skipped — the
 * idiom still counts as detected, it is just not exploited. Pipelines
 * apply matches through RewriteEngine::applyAll instead.
 */
class Transformer
{
  public:
    explicit Transformer(ir::Module &module) : module_(module) {}

    /**
     * The legacy pre-engine path (the solveAllReference/runReference
     * pattern): replace matches one at a time, running cleanup passes
     * after every replacement, with no overlap tracking and no
     * stale-pointer validation. Byte-identical to
     * RewriteEngine::applyAll on match
     * sets where it is well defined — i.e. non-overlapping matches
     * whose solutions stay disjoint from each other's cleanup — and
     * undefined behavior outside that; kept briefly for differential
     * testing.
     */
    std::vector<Replacement>
    applyAllReference(const std::vector<idioms::IdiomMatch> &matches);

  private:
    /** Legacy per-match scheme bodies (reference path only). */
    std::optional<Replacement>
    applyReference(const idioms::IdiomMatch &match);
    std::optional<Replacement>
    applySpmv(const idioms::IdiomMatch &match);
    std::optional<Replacement>
    applyGemm(const idioms::IdiomMatch &match);
    std::optional<Replacement>
    applyReduction(const idioms::IdiomMatch &match);
    std::optional<Replacement>
    applyHistogram(const idioms::IdiomMatch &match);
    std::optional<Replacement>
    applyStencil(const idioms::IdiomMatch &match, int dims);

    ir::Module &module_;
    /** Name counter of the reference path (the engine has its own). */
    int counter_ = 0;
};

} // namespace repro::transform

#endif // TRANSFORM_TRANSFORM_H
