/**
 * @file
 * google-benchmark microbenchmarks for the constraint solver
 * (section 4.4: "the overhead is modest"): detection cost for the
 * factorization example, GEMM, SPMV and full-suite scans. Single
 * idioms are solved through IdiomDetector::detectOne; the *Cached
 * variants hold one FunctionAnalyses across iterations (warm
 * analyses) against the cold path that rebuilds dominators/loops
 * every iteration.
 *
 * Before the microbenchmarks run, main() takes one canonical
 * measurement of the Table 1 matching workload — per-suite wall time
 * and SolveStats (assignments/checks/solutions/rotations/dedup hits),
 * serial and 4-thread totals — and writes it as BENCH_solver.json so
 * the solver's perf trajectory is tracked per commit (the Release CI
 * job uploads the file as an artifact). Flags, consumed before the
 * remainder is handed to google-benchmark:
 *
 *   --json=PATH            output path (default BENCH_solver.json)
 *   --baseline_ms=X        serial-total of a reference commit; adds a
 *                          baseline/speedup record to the JSON
 *   --baseline_commit=SHA  labels that reference commit
 *   --benchmark_filter=^$  (google-benchmark) skip the microbenches,
 *                          e.g. for the CI artifact job
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace repro;

namespace {

/** A function with @p n independent statements plus one match. */
std::string
syntheticSource(int n)
{
    std::string src = "int f(int a, int b, int c) {\n int acc = 0;\n";
    for (int i = 0; i < n; ++i) {
        src += " acc = acc + " + std::to_string(i % 7) +
               " * (a + " + std::to_string(i) + ");\n";
    }
    src += " return (a*b) + (c*a) + acc;\n}\n";
    return src;
}

void
BM_DetectFactorization(benchmark::State &state)
{
    ir::Module module;
    frontend::compileMiniCOrDie(
        syntheticSource(static_cast<int>(state.range(0))), module);
    ir::Function *func = module.functionByName("f");
    for (auto _ : state) {
        idioms::IdiomDetector detector;
        auto matches =
            detector.detectOne(func, "FactorizationOpportunity");
        benchmark::DoNotOptimize(matches);
    }
    state.SetComplexityN(state.range(0));
}

void
BM_DetectIdiom(benchmark::State &state, const char *bench_name,
               const char *idiom)
{
    const auto &b = benchmarks::benchmarkByName(bench_name);
    ir::Module module;
    frontend::compileMiniCOrDie(b.source, module);
    ir::Function *func = module.functionByName(b.entry);
    for (auto _ : state) {
        idioms::IdiomDetector detector;
        auto matches = detector.detectOne(func, idiom);
        benchmark::DoNotOptimize(matches);
    }
}

/** Same as BM_DetectIdiom with warm analyses across iterations. */
void
BM_DetectIdiomCached(benchmark::State &state, const char *bench_name,
                     const char *idiom)
{
    const auto &b = benchmarks::benchmarkByName(bench_name);
    ir::Module module;
    frontend::compileMiniCOrDie(b.source, module);
    ir::Function *func = module.functionByName(b.entry);
    analysis::FunctionAnalyses fa(func);
    for (auto _ : state) {
        idioms::IdiomDetector detector;
        auto matches = detector.detectOne(func, idiom, fa);
        benchmark::DoNotOptimize(matches);
    }
}

void
BM_DetectSpmvInCg(benchmark::State &state)
{
    BM_DetectIdiom(state, "CG", "SPMV");
}

void
BM_DetectSpmvInCgCached(benchmark::State &state)
{
    BM_DetectIdiomCached(state, "CG", "SPMV");
}

void
BM_DetectGemmInSgemm(benchmark::State &state)
{
    BM_DetectIdiom(state, "sgemm", "GEMM");
}

void
BM_DetectGemmInSgemmCached(benchmark::State &state)
{
    BM_DetectIdiomCached(state, "sgemm", "GEMM");
}

void
BM_DetectStencilInParboil(benchmark::State &state)
{
    BM_DetectIdiom(state, "stencil", "Stencil3D");
}

void
BM_DetectStencilInParboilCached(benchmark::State &state)
{
    BM_DetectIdiomCached(state, "stencil", "Stencil3D");
}

void
BM_DetectFullSuite(benchmark::State &state)
{
    for (auto _ : state) {
        int total = 0;
        for (const auto &b : benchmarks::nasParboilSuite()) {
            ir::Module module;
            auto matches = bench::detectBenchmark(b, module);
            total += static_cast<int>(matches.size());
        }
        benchmark::DoNotOptimize(total);
    }
}

/**
 * Threads sweep of the parallel driver over the precompiled Table 1
 * workload (matching only — compilation is excluded so the sweep
 * isolates the sharded solve). Arg(1) is the serial-equivalent
 * baseline of the speedup curve.
 */
void
BM_MatchSuiteParallel(benchmark::State &state)
{
    auto modules = bench::compileSuite();
    auto ptrs = bench::modulePointers(modules);
    unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        driver::MatchingDriver drv;
        auto reports = drv.runParallelBatch(ptrs, threads);
        benchmark::DoNotOptimize(reports);
    }
}

} // namespace

BENCHMARK(BM_DetectFactorization)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();
BENCHMARK(BM_DetectSpmvInCg);
BENCHMARK(BM_DetectSpmvInCgCached);
BENCHMARK(BM_DetectGemmInSgemm);
BENCHMARK(BM_DetectGemmInSgemmCached);
BENCHMARK(BM_DetectStencilInParboil);
BENCHMARK(BM_DetectStencilInParboilCached);
BENCHMARK(BM_DetectFullSuite)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MatchSuiteParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

namespace {

using bench::bestOf;

void
printStatsFields(std::ofstream &out, const solver::SolveStats &s)
{
    out << "\"assignments\": " << s.assignments
        << ", \"checks\": " << s.checks
        << ", \"solutions\": " << s.solutions
        << ", \"rotations\": " << s.rotations
        << ", \"dedup_hits\": " << s.dedupHits;
}

/**
 * The canonical solver measurement: matching only (modules
 * precompiled), the same workload bench_parallel sweeps, per suite
 * and in total, serial and with 4 worker threads.
 */
void
writeCanonicalJson(const std::string &path, double baseline_ms,
                   const std::string &baseline_commit)
{
    const int reps = 5;
    const auto &suite = benchmarks::nasParboilSuite();
    auto modules = bench::compileSuite();
    auto ptrs = bench::modulePointers(modules);

    struct SuitePoint
    {
        std::string name;
        double ms = 0.0;
        size_t matches = 0;
        solver::SolveStats stats;
    };
    std::vector<SuitePoint> points;
    solver::SolveStats totals;
    size_t total_matches = 0;
    for (size_t i = 0; i < ptrs.size(); ++i) {
        SuitePoint p;
        p.name = suite[i].name;
        driver::MatchReport report;
        p.ms = bestOf(reps, [&] {
            driver::MatchingDriver drv;
            report = drv.matchModule(*ptrs[i]);
        });
        p.matches = report.matchCount();
        p.stats = report.totals;
        totals += p.stats;
        total_matches += p.matches;
        points.push_back(std::move(p));
    }
    double serial_ms = bestOf(reps, [&] {
        driver::MatchingDriver drv;
        for (ir::Module *m : ptrs)
            drv.matchModule(*m);
    });
    double threads4_ms = bestOf(reps, [&] {
        driver::MatchingDriver drv;
        drv.runParallelBatch(ptrs, 4);
    });

    std::printf("Canonical solver measurement: Table 1 workload "
                "(%zu modules, %zu matches, best of %d)\n",
                ptrs.size(), total_matches, reps);
    std::printf("%-10s %9s %8s %12s %10s %10s %10s %10s\n", "suite",
                "ms", "matches", "assignments", "checks", "solutions",
                "rotations", "dedup");
    for (const auto &p : points) {
        std::printf("%-10s %9.3f %8zu %12llu %10llu %10llu %10llu "
                    "%10llu\n",
                    p.name.c_str(), p.ms, p.matches,
                    static_cast<unsigned long long>(
                        p.stats.assignments),
                    static_cast<unsigned long long>(p.stats.checks),
                    static_cast<unsigned long long>(p.stats.solutions),
                    static_cast<unsigned long long>(p.stats.rotations),
                    static_cast<unsigned long long>(
                        p.stats.dedupHits));
    }
    std::printf("serial total %.2f ms, 4-thread total %.2f ms\n",
                serial_ms, threads4_ms);
    if (baseline_ms > 0.0) {
        std::printf("baseline %s: %.2f ms -> speedup %.2fx\n",
                    baseline_commit.c_str(), baseline_ms,
                    baseline_ms / serial_ms);
    }

    std::ofstream out(path);
    out << "{\n"
        << "  \"workload\": \"nas-parboil-table1\",\n"
        << "  \"modules\": " << ptrs.size() << ",\n"
        << "  \"matches\": " << total_matches << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"serial_total_ms\": " << serial_ms << ",\n"
        << "  \"threads4_total_ms\": " << threads4_ms << ",\n"
        << "  \"totals\": {";
    printStatsFields(out, totals);
    out << "},\n";
    if (baseline_ms > 0.0) {
        out << "  \"baseline\": {\"commit\": \"" << baseline_commit
            << "\", \"serial_total_ms\": " << baseline_ms
            << ", \"speedup\": " << baseline_ms / serial_ms << "},\n";
    }
    out << "  \"suites\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        out << "    {\"name\": \"" << p.name << "\", \"ms\": " << p.ms
            << ", \"matches\": " << p.matches << ", ";
        printStatsFields(out, p.stats);
        out << "}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_solver.json";
    double baseline_ms = 0.0;
    std::string baseline_commit = "unknown";

    // Strip our flags; everything else goes to google-benchmark.
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
        else if (std::strncmp(argv[i], "--baseline_ms=", 14) == 0)
            baseline_ms = std::atof(argv[i] + 14);
        else if (std::strncmp(argv[i], "--baseline_commit=", 18) == 0)
            baseline_commit = argv[i] + 18;
        else
            rest.push_back(argv[i]);
    }
    int rest_argc = static_cast<int>(rest.size());

    writeCanonicalJson(json_path, baseline_ms, baseline_commit);

    benchmark::Initialize(&rest_argc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
