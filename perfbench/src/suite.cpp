/**
 * @file
 * The two suite workloads: suite-e2e (the paper's path, serial) and
 * suite-parallel-match (the driver's work-stealing batch matcher).
 */
#include <cstdio>
#include <exception>
#include <memory>

#include "frontend/compiler.h"
#include "pipeline.h"

namespace perfbench {

namespace {

const std::vector<benchmarks::BenchmarkProgram> &
suite()
{
    return benchmarks::nasParboilSuite();
}

/** Table 1's IDL row, the paper's ground truth. */
constexpr int kTable1[5] = {45, 5, 6, 1, 3};

int
classIndex(idioms::IdiomClass cls)
{
    switch (cls) {
      case idioms::IdiomClass::ScalarReduction: return 0;
      case idioms::IdiomClass::HistogramReduction: return 1;
      case idioms::IdiomClass::Stencil: return 2;
      case idioms::IdiomClass::MatrixOp: return 3;
      case idioms::IdiomClass::SparseMatrixOp: return 4;
      default: return -1;
    }
}

struct ClassCounts
{
    int n[5] = {0, 0, 0, 0, 0};

    void
    add(const std::vector<idioms::IdiomMatch> &matches)
    {
        for (const auto &m : matches) {
            const int i = classIndex(m.cls);
            if (i >= 0)
                ++n[i];
        }
    }

    bool
    equals(const int expect[5]) const
    {
        for (int i = 0; i < 5; ++i) {
            if (n[i] != expect[i])
                return false;
        }
        return true;
    }
};

// ------------------------------------------------------- suite-e2e

/** One program from source to executed, rewritten result. */
struct ProgramRun
{
    double ms = 0.0;
    bool ok = false;
    ClassCounts classes;
};

ProgramRun
runProgram(const benchmarks::BenchmarkProgram &p, const Outputs &ref,
           bool tamper, Layers *layers)
{
    ProgramRun run;
    try {
        auto t0 = Clock::now();
        ir::Module module;
        std::vector<idioms::IdiomMatch> matches;
        std::vector<transform::Replacement> replacements;
        if (layers) {
            repro::DiagEngine diags;
            if (!tracedCompile(p.source, module, diags, *layers))
                throw repro::FatalError("compile failed: " +
                                        diags.dump());
            bool degraded = false;
            for (const auto &f : module.functions()) {
                if (f->isDeclaration())
                    continue;
                auto m = tracedDetect(f.get(), *layers, &degraded);
                matches.insert(matches.end(), m.begin(), m.end());
            }
            if (degraded)
                throw repro::FatalError("solve degraded");
            replacements = tracedRewrite(module, matches, *layers);
        } else {
            driver::DriverOptions o;
            o.applyTransforms = true;
            driver::MatchingDriver drv(o);
            driver::MatchReport report =
                drv.compileAndMatch(p.source, module);
            matches = report.allMatches();
            replacements = std::move(report.replacements);
        }
        if (tamper)
            dropLastStore(module, p.entry);
        Outputs out = execute(module, p, replacements, layers);
        run.ms = msSince(t0);
        run.classes.add(matches);
        const benchmarks::ExpectedIdioms &e = p.expected;
        const int expect[5] = {e.scalarReductions, e.histograms,
                               e.stencils, e.matrixOps, e.sparseOps};
        run.ok = out == ref && run.classes.equals(expect);
        if (!run.ok && !tamper)
            std::fprintf(stderr, "perfbench: %s: wrong result\n",
                         p.name.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", p.name.c_str(),
                     e.what());
    }
    return run;
}

/** A pass over all 21 programs in a seeded order. */
struct PassRun
{
    double ms = 0.0;
    std::vector<double> programMs;
    uint64_t failed = 0;
};

PassRun
runPass(const std::vector<Outputs> &refs, Rng &rng, bool tamper,
        Layers *layers)
{
    std::vector<size_t> order(suite().size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);

    PassRun pass;
    ClassCounts total;
    auto t0 = Clock::now();
    for (size_t i : order) {
        // The seeded defect lands in the first suite program (BT),
        // whose entry function ends by storing a watched result.
        ProgramRun run =
            runProgram(suite()[i], refs[i], tamper && i == 0, layers);
        pass.programMs.push_back(run.ms);
        pass.failed += run.ok ? 0 : 1;
        for (int c = 0; c < 5; ++c)
            total.n[c] += run.classes.n[c];
    }
    pass.ms = msSince(t0);
    // Table 1 must hold for the pass as a whole; otherwise every
    // program of the pass counts as failed.
    if (!total.equals(kTable1))
        pass.failed = order.size();
    return pass;
}

std::vector<Outputs>
computeReferences()
{
    std::vector<Outputs> refs;
    for (const auto &p : suite())
        refs.push_back(referenceOutputs(p));
    return refs;
}

std::vector<std::string>
fingerprints(const std::vector<idioms::IdiomMatch> &matches)
{
    std::vector<std::string> out;
    for (const auto &m : matches)
        out.push_back(idioms::matchFingerprint(m));
    return out;
}

/**
 * The 21 programs compiled into modules, with the golden match list
 * of each from the serial, cache-less matchModule.
 */
struct CompiledSuite
{
    std::vector<std::unique_ptr<ir::Module>> modules;
    std::vector<ir::Module *> ptrs;
    std::vector<std::vector<std::string>> golden;

    /** With @p layers, compile through the staged frontend. */
    static CompiledSuite
    build(Layers *layers)
    {
        CompiledSuite s;
        for (const auto &p : suite()) {
            s.modules.push_back(std::make_unique<ir::Module>());
            ir::Module &m = *s.modules.back();
            m.setName(p.name);
            repro::DiagEngine diags;
            if (layers ? !tracedCompile(p.source, m, diags, *layers)
                       : !repro::frontend::compileMiniC(p.source, m,
                                                        diags))
                throw repro::FatalError(p.name + ": compile failed");
            driver::MatchingDriver serial;
            s.golden.push_back(
                fingerprints(serial.matchModule(m).allMatches()));
            s.ptrs.push_back(&m);
        }
        return s;
    }

    /**
     * One runParallelBatch over all modules with @p threads workers,
     * checked module by module against the golden lists; returns its
     * wall time in ms. @p permute seeds the negative self-test's
     * defect: the first two reports swap places.
     */
    double
    batch(unsigned threads, bool permute, RunResult &r) const
    {
        driver::MatchingDriver drv;
        auto t0 = Clock::now();
        std::vector<driver::MatchReport> reports =
            drv.runParallelBatch(ptrs, threads);
        const double ms = msSince(t0);
        if (permute)
            std::swap(reports[0], reports[1]);
        for (size_t i = 0; i < reports.size(); ++i) {
            ++r.attempted;
            if (fingerprints(reports[i].allMatches()) != golden[i])
                ++r.failed;
        }
        return ms;
    }
};

/** The driver layer: median batch times and the parallel efficiency. */
void
reportDriver(RunResult &r, const std::vector<double> &serialMs,
             const std::vector<double> &parallelMs, unsigned threads)
{
    const double serial = median(serialMs);
    const double parallel = median(parallelMs);
    r.metrics["driver.serial_ms"] = serial;
    r.metrics["driver.parallel_ms"] = parallel;
    r.metrics["driver.parallel_efficiency"] =
        serial / (parallel * threads);
}

} // namespace

RunResult
runSuiteE2E(const Options &opts)
{
    RunResult r;
    Rng rng{opts.seed};

    // Set-up: the reference outputs, computed several times; every
    // repetition must agree.
    std::vector<Outputs> refs;
    const double setup = medianSetupSeconds(5, [&] {
        std::vector<Outputs> again = computeReferences();
        if (!refs.empty() && !(again == refs))
            r.fail("reference outputs differ between set-ups");
        refs = std::move(again);
    });

    CompiledSuite modules;
    if (opts.trace) {
        r.threads = opts.nproc;
        for (const auto &p : suite()) {
            std::string err = checkCompileSplit(p.source);
            if (!err.empty())
                r.fail(p.name + ": " + err);
        }
        modules = CompiledSuite::build(nullptr);
    }

    std::vector<double> passMs, programMs, untracedMs, serialMs,
        parallelMs;
    LayerSeries traced;
    auto start = Clock::now();
    // The traced run rotates an untraced pass, a traced pass and the
    // driver's batch matcher over the compiled suite with one and with
    // nproc threads, so all see the same machine state;
    // trace.overhead_pct compares the two kinds of pass.
    for (size_t n = 0;
         n < 6 || msSince(start) < opts.seconds * 1000.0; ++n) {
        if (opts.trace && n % 3 == 2) {
            serialMs.push_back(modules.batch(1, false, r));
            parallelMs.push_back(modules.batch(opts.nproc, false, r));
            continue;
        }
        const bool tracedPass = opts.trace && n % 3 == 1;
        Layers layers;
        PassRun pass = runPass(refs, rng, opts.injectDefect,
                               tracedPass ? &layers : nullptr);
        r.attempted += pass.programMs.size();
        r.failed += pass.failed;
        if (tracedPass) {
            traced.push(layers);
            passMs.push_back(pass.ms);
        } else {
            untracedMs.push_back(pass.ms);
            programMs.insert(programMs.end(), pass.programMs.begin(),
                             pass.programMs.end());
        }
    }
    const double elapsedS = msSince(start) / 1000.0;

    if (opts.trace) {
        traced.report(r, "traced passes");
        r.metrics["trace.overhead_pct"] =
            100.0 * (median(passMs) - median(untracedMs)) /
            median(untracedMs);
        reportDriver(r, serialMs, parallelMs, opts.nproc);
        return r;
    }
    r.metrics["setup_s"] = setup;
    r.metrics["pass_ms_p50"] = median(untracedMs);
    r.metrics["pass_ms_p90"] = quantile(untracedMs, 0.9);
    r.metrics["submit_ms_p50"] = median(programMs);
    r.metrics["submit_ms_p90"] = quantile(programMs, 0.9);
    r.metrics["submits_per_s"] =
        static_cast<double>(programMs.size()) / elapsedS;
    r.metrics["peak_rss_mb"] = vmHwmMb();
    return r;
}

RunResult
runSuiteParallelMatch(const Options &opts)
{
    RunResult r;
    const unsigned threads = opts.nproc;
    r.threads = threads;

    // Set-up: compile the 21 modules and take their golden match
    // lists. The traced run compiles through the staged frontend to
    // time its layers.
    CompiledSuite modules;
    LayerSeries frontendLayers;
    const double setup = medianSetupSeconds(5, [&] {
        Layers layers;
        CompiledSuite again =
            CompiledSuite::build(opts.trace ? &layers : nullptr);
        if (!modules.golden.empty() && again.golden != modules.golden)
            r.fail("golden match lists differ between set-ups");
        if (opts.trace)
            frontendLayers.push(layers);
        modules = std::move(again);
    });

    if (opts.trace) {
        for (const auto &p : suite()) {
            std::string err = checkCompileSplit(p.source);
            if (!err.empty())
                r.fail(p.name + ": " + err);
        }
    }

    std::vector<double> parallelMs, serialMs, replicaMs;
    LayerSeries matchLayers;
    auto start = Clock::now();
    for (size_t n = 0;
         n < 6 || msSince(start) < opts.seconds * 1000.0; ++n) {
        if (!opts.trace) {
            parallelMs.push_back(
                modules.batch(threads, opts.injectDefect, r));
            continue;
        }
        // Traced run: rotate the parallel batch, the one-thread batch
        // and the traced single-thread replica of the match loop.
        if (n % 3 == 0) {
            parallelMs.push_back(modules.batch(threads, false, r));
        } else if (n % 3 == 1) {
            serialMs.push_back(modules.batch(1, false, r));
        } else {
            Layers layers;
            auto t0 = Clock::now();
            std::vector<std::vector<idioms::IdiomMatch>> found;
            bool degraded = false;
            for (ir::Module *m : modules.ptrs) {
                found.emplace_back();
                for (const auto &f : m->functions()) {
                    if (f->isDeclaration())
                        continue;
                    auto fm = tracedDetect(f.get(), layers, &degraded);
                    found.back().insert(found.back().end(), fm.begin(),
                                        fm.end());
                }
            }
            replicaMs.push_back(msSince(t0));
            matchLayers.push(layers);
            for (size_t i = 0; i < found.size(); ++i) {
                ++r.attempted;
                if (degraded || fingerprints(found[i]) != modules.golden[i])
                    ++r.failed;
            }
        }
    }
    const double elapsedS = msSince(start) / 1000.0;

    if (opts.trace) {
        frontendLayers.report(r, "set-ups");
        matchLayers.report(r, "traced passes");
        reportDriver(r, serialMs, parallelMs, threads);
        r.metrics["trace.overhead_pct"] =
            100.0 * (median(replicaMs) - median(serialMs)) /
            median(serialMs);
        return r;
    }
    // One operation is one batch over the 21 modules, so a pass and a
    // SUBMIT coincide on this workload.
    r.metrics["setup_s"] = setup;
    r.metrics["pass_ms_p50"] = median(parallelMs);
    r.metrics["pass_ms_p90"] = quantile(parallelMs, 0.9);
    r.metrics["submit_ms_p50"] = median(parallelMs);
    r.metrics["submit_ms_p90"] = quantile(parallelMs, 0.9);
    r.metrics["submits_per_s"] =
        static_cast<double>(parallelMs.size()) / elapsedS;
    r.metrics["peak_rss_mb"] = vmHwmMb();
    return r;
}

} // namespace perfbench
