/**
 * @file
 * Tests of the reliability-hardening rewrites (transform/harden.h),
 * the deterministic fault-injection hooks of both execution engines
 * and the campaign harness (driver/harden_campaign.h).
 *
 * The pins, in dependency order: hardening must be a semantic no-op
 * on fault-free runs (both engines, bit-identical outputs); a given
 * FaultPlan must classify identically under the bytecode and the
 * tree-walking reference engine; the campaign must be byte-stable
 * under sharding; and across the NAS/Parboil suite the hardened sweep
 * must eliminate silent data corruption that the baseline sweep
 * demonstrably suffers. Finally, hardening must win block-claim
 * overlap resolution against idiom rewrites inside `__protect`
 * functions, and the single-pass `__protect(eddi)` /
 * `__protect(cfcss)` modes must commit on their own.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "benchmarks/suite.h"
#include "driver/harden_campaign.h"
#include "frontend/compiler.h"
#include "idioms/library.h"
#include "interp/builtins.h"
#include "interp/interpreter.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "transform/harden.h"
#include "transform/rewrite.h"
#include "transform/transform.h"

using namespace repro;
using interp::RuntimeValue;

namespace {

/** Compile @p program, optionally hardening its entry function. */
void
compileVariant(const benchmarks::BenchmarkProgram &program,
               ir::Module &module, const char *protectAttr)
{
    frontend::compileMiniCOrDie(program.source, module);
    if (!protectAttr)
        return;
    ir::Function *entry = module.functionByName(program.entry);
    ASSERT_NE(entry, nullptr) << program.name;
    entry->addAttribute(protectAttr);
    transform::RewriteEngine engine(module);
    auto reps = engine.applyAll({});
    ASSERT_EQ(reps.size(), 1u) << program.name;
    EXPECT_EQ(reps[0].kind, "harden") << program.name;
    auto problems = ir::verifyModule(module);
    ASSERT_TRUE(problems.empty())
        << program.name << ": " << problems.front();
}

struct RunResult
{
    RuntimeValue ret;
    std::vector<uint8_t> watched;
    uint64_t steps = 0;
};

/** One fresh-heap execution of @p program's entry function. */
RunResult
runProgram(ir::Module &module,
           const benchmarks::BenchmarkProgram &program, bool reference)
{
    interp::Memory mem;
    interp::Interpreter interp(module, mem);
    interp::registerMathBuiltins(interp);
    benchmarks::Instance inst = program.setup(mem);
    ir::Function *entry = module.functionByName(program.entry);
    RunResult out;
    out.ret = reference ? interp.runReference(entry, inst.args)
                        : interp.run(entry, inst.args);
    out.steps = interp.stepsExecuted();
    auto grab = [&](const std::vector<std::pair<uint64_t, size_t>> &ws,
                    uint64_t elemSize) {
        for (const auto &[addr, count] : ws) {
            interp::Memory::RawSpan span(mem, addr, elemSize * count);
            out.watched.insert(out.watched.end(), span.data(),
                               span.data() + span.size());
        }
    };
    grab(inst.watchDoubles, 8);
    grab(inst.watchInts, 4);
    return out;
}

void
expectSameResult(const RunResult &x, const RunResult &y,
                 const std::string &what)
{
    EXPECT_TRUE(RuntimeValue::bitsEqual(x.ret, y.ret)) << what;
    EXPECT_EQ(x.watched, y.watched) << what;
}

void
expectSameCampaign(const driver::HardenCampaignResult &x,
                   const driver::HardenCampaignResult &y)
{
    EXPECT_EQ(x.program, y.program);
    EXPECT_EQ(x.hardened, y.hardened);
    EXPECT_EQ(x.goldenSteps, y.goldenSteps) << x.program;
    EXPECT_EQ(x.goldenBoundaries, y.goldenBoundaries) << x.program;
    EXPECT_EQ(x.detected, y.detected) << x.program;
    EXPECT_EQ(x.masked, y.masked) << x.program;
    EXPECT_EQ(x.sdc, y.sdc) << x.program;
    EXPECT_EQ(x.crashed, y.crashed) << x.program;
    ASSERT_EQ(x.runs.size(), y.runs.size()) << x.program;
    for (size_t i = 0; i < x.runs.size(); ++i) {
        EXPECT_EQ(x.runs[i].plan.step, y.runs[i].plan.step);
        EXPECT_EQ(x.runs[i].plan.valueIndex,
                  y.runs[i].plan.valueIndex);
        EXPECT_EQ(x.runs[i].plan.bit, y.runs[i].plan.bit);
        EXPECT_EQ(x.runs[i].outcome, y.runs[i].outcome)
            << x.program << " run " << i;
    }
}

} // namespace

TEST(Harden, NoFaultRunsAreSemanticallyInvisible)
{
    // Across the whole suite: hardening must change how much work a
    // program does, never what it computes — on either engine.
    for (const auto &b : benchmarks::nasParboilSuite()) {
        SCOPED_TRACE(b.name);
        ir::Module plain, hardened;
        compileVariant(b, plain, nullptr);
        compileVariant(b, hardened, "protect");
        if (::testing::Test::HasFatalFailure())
            return;

        RunResult plainFast = runProgram(plain, b, false);
        RunResult hardFast = runProgram(hardened, b, false);
        RunResult hardRef = runProgram(hardened, b, true);
        expectSameResult(plainFast, hardFast, b.name + " bytecode");
        expectSameResult(plainFast, hardRef, b.name + " reference");
        // The checks are real instructions: the hardened run must be
        // doing strictly more dynamic work.
        EXPECT_GT(hardFast.steps, plainFast.steps) << b.name;
        EXPECT_EQ(hardFast.steps, hardRef.steps) << b.name;
    }
}

TEST(Harden, FaultOutcomesAgreeAcrossEngines)
{
    // The same FaultPlan must classify identically under both
    // engines: that parity is what makes campaign numbers engine-
    // independent facts about the program, not about the interpreter.
    driver::HardenCampaignOptions opts;
    opts.injectionsPerProgram = 8;
    for (const char *name : {"IS", "MG"}) {
        const auto &b = benchmarks::benchmarkByName(name);
        for (bool harden : {true, false}) {
            SCOPED_TRACE(std::string(name) +
                         (harden ? " hardened" : " baseline"));
            opts.harden = harden;
            opts.useReferenceEngine = false;
            auto fast = driver::runHardenCampaign(b, opts);
            opts.useReferenceEngine = true;
            auto ref = driver::runHardenCampaign(b, opts);
            expectSameCampaign(fast, ref);
        }
    }
}

TEST(Harden, CampaignShardingIsDeterministic)
{
    driver::HardenCampaignOptions opts;
    opts.injectionsPerProgram = 2;
    auto serial = driver::runHardenCampaignSuite(opts, 1);
    auto sharded = driver::runHardenCampaignSuite(opts, 4);
    ASSERT_EQ(serial.size(), sharded.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectSameCampaign(serial[i], sharded[i]);
}

TEST(Harden, CampaignEliminatesSilentCorruption)
{
    // The acceptance claim of the hardening passes, in miniature:
    // hardened programs catch at least 90% of the faults that would
    // otherwise corrupt silently, while the identical baseline sweep
    // proves the injected faults do cause SDC when unprotected.
    driver::HardenCampaignOptions opts;
    opts.injectionsPerProgram = 12;

    opts.harden = true;
    auto hardened = driver::runHardenCampaignSuite(opts, 1);
    size_t detected = 0, sdc = 0;
    for (const auto &r : hardened) {
        EXPECT_EQ(r.sdc, 0u) << r.program;
        detected += r.detected;
        sdc += r.sdc;
    }
    ASSERT_GT(detected + sdc, 0u);
    EXPECT_GE(static_cast<double>(detected) /
                  static_cast<double>(detected + sdc),
              0.9);

    opts.harden = false;
    auto baseline = driver::runHardenCampaignSuite(opts, 1);
    size_t baselineSdc = 0, baselineDetected = 0;
    for (const auto &r : baseline) {
        baselineSdc += r.sdc;
        baselineDetected += r.detected;
    }
    EXPECT_GT(baselineSdc, 0u)
        << "baseline sweep shows no SDC: the campaign is vacuous";
    // No hardening checks exist in the baseline, so nothing traps.
    EXPECT_EQ(baselineDetected, 0u);
}

TEST(Harden, SinglePassModesCommit)
{
    // `__protect(eddi)` and `__protect(cfcss)` must each commit alone
    // and stay semantically invisible; both passes together must cost
    // more dynamic steps than either alone.
    const auto &b = benchmarks::benchmarkByName("IS");
    ir::Module plain;
    compileVariant(b, plain, nullptr);
    RunResult base = runProgram(plain, b, false);

    uint64_t steps[3] = {0, 0, 0};
    const char *modes[3] = {"protect:eddi", "protect:cfcss",
                            "protect"};
    for (int m = 0; m < 3; ++m) {
        SCOPED_TRACE(modes[m]);
        ir::Module module;
        compileVariant(b, module, modes[m]);
        if (::testing::Test::HasFatalFailure())
            return;
        RunResult fast = runProgram(module, b, false);
        RunResult ref = runProgram(module, b, true);
        expectSameResult(base, fast, modes[m]);
        expectSameResult(base, ref, modes[m]);
        steps[m] = fast.steps;
    }
    EXPECT_GT(steps[0], base.steps);
    EXPECT_GT(steps[1], base.steps);
    EXPECT_GT(steps[2], steps[0]);
    EXPECT_GT(steps[2], steps[1]);
}

TEST(Harden, ProtectedFunctionBeatsIdiomRewrite)
{
    // Overlap pin: inside a `__protect` function the hardening plan
    // claims every block, so it must deterministically beat an idiom
    // plan (here a full GEMM match) in widest-claim-first resolution
    // — reliability was requested, acceleration loses.
    const char *src = R"(
        __protect void sgemm(float *A, int lda, float *B, int ldb,
                             float *C, int ldc, int m, int n, int k,
                             float alpha, float beta) {
            for (int mm = 0; mm < m; mm++) {
                for (int nn = 0; nn < n; nn++) {
                    float c = 0.0f;
                    for (int i = 0; i < k; i++)
                        c += A[mm + i * lda] * B[nn + i * ldb];
                    C[mm+nn*ldc] = C[mm+nn*ldc] * beta + alpha * c;
                }
            }
        }
    )";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    ir::Function *fn = module.functionByName("sgemm");
    ASSERT_NE(fn, nullptr);
    EXPECT_TRUE(fn->hasAttribute("protect"));

    idioms::IdiomDetector det;
    auto matches = det.detectModule(module);
    ASSERT_GE(matches.size(), 1u); // the GEMM is still *detected*

    transform::RewriteEngine engine(module);
    auto reps = engine.applyAll(matches);
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_EQ(reps[0].kind, "harden");
    EXPECT_GE(engine.stats().droppedOverlap, 1u);
    EXPECT_EQ(engine.stats().committed, 1u);
    auto problems = ir::verifyModule(module);
    EXPECT_TRUE(problems.empty()) << problems.front();

    // Without the marker the same source is rewritten as GEMM.
    ir::Module accel;
    std::string plainSrc = src;
    plainSrc.replace(plainSrc.find("__protect "), 10, "");
    frontend::compileMiniCOrDie(plainSrc, accel);
    idioms::IdiomDetector det2;
    transform::RewriteEngine engine2(accel);
    auto reps2 = engine2.applyAll(det2.detectModule(accel));
    ASSERT_EQ(reps2.size(), 1u);
    EXPECT_EQ(reps2[0].kind, "gemm");
}

TEST(Harden, TrapDeclarationIsReused)
{
    // Two protected functions share one trap declaration, and an
    // incompatible same-named definition makes planning refuse.
    const char *src = R"(
        __protect double f(double *a, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = s + a[i];
            return s;
        }
        __protect double g(double *a, int n) {
            double s = 1.0;
            for (int i = 0; i < n; i++) s = s * (0.5 + a[i]);
            return s;
        }
    )";
    ir::Module module;
    frontend::compileMiniCOrDie(src, module);
    transform::RewriteEngine engine(module);
    auto reps = engine.applyAll({});
    ASSERT_EQ(reps.size(), 2u);
    EXPECT_EQ(reps[0].kind, "harden");
    EXPECT_EQ(reps[1].kind, "harden");
    EXPECT_EQ(reps[0].calleeName, reps[1].calleeName);
    EXPECT_EQ(reps[0].callee, reps[1].callee);
    auto problems = ir::verifyModule(module);
    EXPECT_TRUE(problems.empty()) << problems.front();
}
