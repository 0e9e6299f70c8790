/**
 * @file
 * Tests of the batched MatchingDriver: end-to-end pipeline over the
 * quickstart / GEMM / SPMV sources, aggregate statistics, and the
 * guarantee that the batched match loop produces matches identical to
 * stand-alone per-function solving.
 */
#include <gtest/gtest.h>

#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "frontend/compiler.h"
#include "idl/lower.h"
#include "ir/verifier.h"

using namespace repro;

namespace {

/** The running example of section 2.2 (quickstart.cpp). */
const char *kQuickstartSource = R"(
    int example(int a, int b, int c) {
        int d = a;
        return (a*b) + (c*d);
    }
)";

std::vector<std::string>
matchKeys(const std::vector<idioms::IdiomMatch> &matches)
{
    std::vector<std::string> keys;
    for (const auto &m : matches)
        keys.push_back(idioms::matchFingerprint(m));
    return keys;
}

} // namespace

TEST(Driver, QuickstartFactorization)
{
    ir::Module module;
    frontend::compileMiniCOrDie(kQuickstartSource, module);
    ir::Function *func = module.functionByName("example");

    idioms::IdiomDetector detector;
    auto matches = detector.detectOne(func, "FactorizationOpportunity");
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].solution.lookup("factor")->handle(), "%a");
    EXPECT_GT(detector.stats().assignments, 0u);
    EXPECT_GT(detector.stats().checks, 0u);
}

TEST(Driver, BatchStatsPopulated)
{
    const auto &gemm = benchmarks::benchmarkByName("sgemm");
    driver::MatchingDriver drv;
    ir::Module module;
    auto report = drv.compileAndMatch(gemm.source, module);

    ASSERT_FALSE(report.functions.empty());
    EXPECT_GT(report.matchCount(), 0u);
    EXPECT_GT(report.totals.assignments, 0u);
    EXPECT_GT(report.totals.checks, 0u);
    EXPECT_GT(report.totals.solutions, 0u);

    // Per-function stats sum to the report totals.
    solver::SolveStats sum;
    for (const auto &fr : report.functions)
        sum += fr.stats;
    EXPECT_EQ(sum.assignments, report.totals.assignments);
    EXPECT_EQ(sum.checks, report.totals.checks);
    EXPECT_EQ(sum.solutions, report.totals.solutions);

    // The driver's lifetime totals cover the batch.
    EXPECT_GE(drv.totals().assignments, report.totals.assignments);
}

TEST(Driver, CachedAnalysesMatchPerFunctionSolving)
{
    // GEMM (sgemm), SPMV (CG) and the stencil benchmark: the batched
    // driver must produce byte-identical match sets to fresh
    // per-function detection.
    for (const char *name : {"sgemm", "CG", "stencil"}) {
        const auto &b = benchmarks::benchmarkByName(name);
        driver::MatchingDriver drv;
        ir::Module module;
        auto report = drv.compileAndMatch(b.source, module);

        std::vector<idioms::IdiomMatch> standalone;
        for (const auto &f : module.functions()) {
            if (f->isDeclaration())
                continue;
            idioms::IdiomDetector detector;
            auto matches = detector.detect(f.get());
            standalone.insert(standalone.end(), matches.begin(),
                              matches.end());
        }

        EXPECT_EQ(matchKeys(report.allMatches()),
                  matchKeys(standalone))
            << "driver/per-function mismatch on " << name;
    }
}

TEST(Driver, SolverSolvesLoweredProgram)
{
    ir::Module module;
    frontend::compileMiniCOrDie(kQuickstartSource, module);
    ir::Function *func = module.functionByName("example");

    auto lowered = idl::lowerIdiom(idioms::idiomLibrary(),
                                   "FactorizationOpportunity");
    analysis::FunctionAnalyses fa(func);
    solver::Solver solver(func, fa);
    EXPECT_EQ(solver.solveAll(lowered).size(), 1u);
    EXPECT_GT(solver.stats().assignments, 0u);
}

TEST(Driver, TransformStageRewritesModule)
{
    const auto &b = benchmarks::benchmarkByName("sgemm");
    driver::DriverOptions opts;
    opts.applyTransforms = true;
    driver::MatchingDriver drv(opts);
    ir::Module module;
    auto report = drv.compileAndMatch(b.source, module);

    EXPECT_FALSE(report.replacements.empty());
    // The rewritten module is still valid IR.
    EXPECT_TRUE(ir::verifyModule(module).empty());
}

TEST(Driver, CacheIsScopedPerModule)
{
    // One driver reused across module lifetimes (function addresses
    // can be recycled) keeps no per-function state, so the second
    // module matches exactly like the first.
    const auto &b = benchmarks::benchmarkByName("sgemm");
    driver::MatchingDriver drv;
    std::vector<std::string> first;
    {
        ir::Module moduleA;
        first = matchKeys(
            drv.compileAndMatch(b.source, moduleA).allMatches());
    }
    ir::Module moduleB;
    auto second =
        matchKeys(drv.compileAndMatch(b.source, moduleB).allMatches());
    EXPECT_EQ(first, second);
}

TEST(Driver, SolverLimitsAreHonored)
{
    const auto &b = benchmarks::benchmarkByName("CG");
    driver::DriverOptions opts;
    opts.limits.maxAssignments = 1;
    driver::MatchingDriver drv(opts);
    ir::Module module;
    auto report = drv.compileAndMatch(b.source, module);
    // With an absurdly small budget nothing can be matched.
    EXPECT_EQ(report.matchCount(), 0u);
}
