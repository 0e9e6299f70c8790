/**
 * @file
 * Tests of the driver's match loop (the work-stealing shard engine
 * behind matchModule / runParallelBatch): for any thread count it
 * must produce match sets, per-function stats and aggregated totals
 * byte-identical to an independent serial oracle — a per-function
 * IdiomDetector loop, which never enters the shard engine — on the
 * example modules and on synthetic many-function modules.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "frontend/compiler.h"
#include "ir/verifier.h"

using namespace repro;

namespace {

std::vector<std::string>
matchKeys(const std::vector<idioms::IdiomMatch> &matches)
{
    std::vector<std::string> keys;
    for (const auto &m : matches)
        keys.push_back(idioms::matchFingerprint(m));
    return keys;
}

void
expectSameStats(const solver::SolveStats &a, const solver::SolveStats &b)
{
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_EQ(a.checks, b.checks);
    EXPECT_EQ(a.solutions, b.solutions);
}

/**
 * The serial oracle: a fresh IdiomDetector per function, so each
 * function's stats are that detector's stats.
 */
driver::MatchReport
perFunctionReport(ir::Module &module)
{
    driver::MatchReport report;
    for (const auto &f : module.functions()) {
        if (f->isDeclaration())
            continue;
        idioms::IdiomDetector detector;
        driver::FunctionReport fr;
        fr.function = f.get();
        fr.matches = detector.detect(f.get());
        fr.stats = detector.stats();
        report.totals += fr.stats;
        report.functions.push_back(std::move(fr));
    }
    return report;
}

/** perFunctionReport over a fresh compile of @p source. */
driver::MatchReport
perFunctionReport(const std::string &source, ir::Module &module)
{
    frontend::compileMiniCOrDie(source, module);
    return perFunctionReport(module);
}

/** Oracle-vs-engine report equality, field by field. */
void
expectSameReport(const driver::MatchReport &serial,
                 const driver::MatchReport &parallel)
{
    EXPECT_EQ(matchKeys(serial.allMatches()),
              matchKeys(parallel.allMatches()));
    expectSameStats(serial.totals, parallel.totals);
    ASSERT_EQ(serial.functions.size(), parallel.functions.size());
    for (size_t i = 0; i < serial.functions.size(); ++i) {
        // Reports may come from separately compiled modules; compare
        // by name, not by pointer.
        EXPECT_EQ(serial.functions[i].function->name(),
                  parallel.functions[i].function->name());
        expectSameStats(serial.functions[i].stats,
                        parallel.functions[i].stats);
    }
}

/** A module with @p n functions, each holding a vector-sum reduction. */
std::string
manyFunctionSource(int n)
{
    std::ostringstream src;
    for (int i = 0; i < n; ++i) {
        src << "double sum" << i << "(double *a, int n) {\n"
            << "  double acc = 0.0;\n"
            << "  for (int k = 0; k < n; k = k + 1)\n"
            << "    acc = acc + a[k];\n"
            << "  return acc;\n"
            << "}\n";
    }
    return src.str();
}

} // namespace

TEST(DriverParallel, MatchesSerialOnExampleModules)
{
    for (const char *name : {"sgemm", "CG", "stencil", "histo"}) {
        const auto &b = benchmarks::benchmarkByName(name);

        ir::Module serialModule;
        auto serial = perFunctionReport(b.source, serialModule);

        for (unsigned threads : {1u, 2u, 4u, 0u}) {
            driver::MatchingDriver drv;
            ir::Module module;
            auto parallel = drv.compileAndMatch(b.source, module, threads);
            SCOPED_TRACE(std::string(name) + " @ " +
                         std::to_string(threads));
            expectSameReport(serial, parallel);
        }
    }
}

TEST(DriverParallel, OneThreadEqualsSerial)
{
    const auto &b = benchmarks::benchmarkByName("sgemm");
    ir::Module module;
    frontend::compileMiniCOrDie(b.source, module);

    auto serial = perFunctionReport(module);
    driver::MatchingDriver drv;
    auto oneThread = drv.matchModule(module);
    expectSameReport(serial, oneThread);
}

TEST(DriverParallel, ManyFunctionModuleAnyThreadCount)
{
    // 16 functions in one module: real intra-module sharding, with
    // more shards than workers so the work-stealing queue rotates.
    std::string source = manyFunctionSource(16);

    ir::Module serialModule;
    auto serial = perFunctionReport(source, serialModule);
    EXPECT_EQ(serial.matchCount(), 16u);

    for (unsigned threads : {1u, 2u, 3u, 4u, 8u, 0u}) {
        driver::MatchingDriver drv;
        ir::Module module;
        auto parallel = drv.compileAndMatch(source, module, threads);
        SCOPED_TRACE(threads);
        expectSameReport(serial, parallel);
        // The driver's lifetime totals see exactly this batch.
        expectSameStats(drv.totals(), serial.totals);
    }
}

TEST(DriverParallel, BatchAcrossModulesMatchesSerial)
{
    // The Table 1 workload: all 21 NAS/Parboil programs, one
    // single-function module each, one shared work queue across all
    // of them.
    const auto &programs = benchmarks::nasParboilSuite();

    std::vector<std::unique_ptr<ir::Module>> modules;
    std::vector<ir::Module *> modulePtrs;
    std::vector<driver::MatchReport> serial;
    solver::SolveStats serialTotals;
    for (const auto &p : programs) {
        modules.push_back(std::make_unique<ir::Module>());
        frontend::compileMiniCOrDie(p.source, *modules.back());
        modulePtrs.push_back(modules.back().get());
        serial.push_back(perFunctionReport(*modules.back()));
        serialTotals += serial.back().totals;
    }

    for (unsigned threads : {1u, 2u, 4u, 8u, 0u}) {
        SCOPED_TRACE(threads);
        driver::MatchingDriver drv;
        auto parallel = drv.runParallelBatch(modulePtrs, threads);
        ASSERT_EQ(parallel.size(), serial.size());
        solver::SolveStats batchTotals;
        for (size_t m = 0; m < serial.size(); ++m) {
            SCOPED_TRACE(programs[m].name);
            expectSameReport(serial[m], parallel[m]);
            batchTotals += parallel[m].totals;
        }
        // The whole batch did exactly the serial run's solver work.
        expectSameStats(serialTotals, batchTotals);
        expectSameStats(serialTotals, drv.totals());
    }
}

TEST(DriverParallel, HardwareConcurrencyDefault)
{
    // numThreads = 0 resolves to hardware concurrency and must stay
    // deterministic regardless of what that is.
    std::string source = manyFunctionSource(8);
    ir::Module serialModule;
    auto serial = perFunctionReport(source, serialModule);

    driver::MatchingDriver drv;
    ir::Module module;
    auto parallel = drv.compileAndMatch(source, module, 0);
    expectSameReport(serial, parallel);
}

TEST(DriverParallel, TransformsApplyAfterParallelMatch)
{
    const auto &b = benchmarks::benchmarkByName("sgemm");
    driver::DriverOptions opts;
    opts.applyTransforms = true;
    driver::MatchingDriver drv(opts);
    ir::Module module;
    auto report = drv.compileAndMatch(b.source, module, 4);

    EXPECT_FALSE(report.replacements.empty());
    // The rewriting stage ran after the join and the module is still
    // valid IR.
    EXPECT_TRUE(ir::verifyModule(module).empty());
}

TEST(DriverParallel, SolverLimitsAreHonored)
{
    const auto &b = benchmarks::benchmarkByName("CG");
    driver::DriverOptions opts;
    opts.limits.maxAssignments = 1;
    driver::MatchingDriver drv(opts);
    ir::Module module;
    auto report = drv.compileAndMatch(b.source, module, 4);
    EXPECT_EQ(report.matchCount(), 0u);
}

TEST(DriverParallel, EmptyModule)
{
    driver::MatchingDriver drv;
    ir::Module module;
    auto report = drv.matchModule(module, 4);
    EXPECT_EQ(report.matchCount(), 0u);
    EXPECT_TRUE(report.functions.empty());
    EXPECT_EQ(report.totals.assignments, 0u);
}
