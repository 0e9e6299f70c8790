/**
 * @file
 * perfbench: the end-to-end benchmark of the matching pipeline and
 * the repro_serviced daemon (perfbench/BENCHMARK.md).
 *
 *   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
 *             --daemon=<repro_serviced> --workdir=<dir>
 *             [--inject-defect] [--cpu-max=<text>] [--commit=<text>]
 *
 * Prints an environment record, then as its last stdout line one
 * JSON object {correct, attempted, failed, metrics}: the end-to-end
 * metrics untraced, the per-layer metrics traced.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include <sched.h>

#include "common.h"
#include "idioms/library.h"

namespace perfbench {

double
vmHwmMb(const std::string &pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

} // namespace perfbench

namespace {

using namespace perfbench;

struct MetricSpec
{
    std::string name;
    const char *unit;
};

std::vector<MetricSpec>
endToEndMetrics()
{
    return {{"setup_s", "s"},           {"pass_ms_p50", "ms"},
            {"pass_ms_p90", "ms"},      {"submit_ms_p50", "ms"},
            {"submit_ms_p90", "ms"},    {"submits_per_s", "1/s"},
            {"peak_rss_mb", "MiB"}};
}

/**
 * Every layer metric, in BENCHMARK.json order. A workload that never
 * enters a layer reports 0 for it (the daemon never rewrites, the
 * suite runs no cache, ...).
 */
std::vector<MetricSpec>
perLayerMetrics()
{
    std::vector<MetricSpec> m = {
        {"frontend.parse_ms", "ms"},
        {"frontend.codegen_ms", "ms"},
        {"frontend.mem2reg_ms", "ms"},
        {"frontend.dce_ms", "ms"},
        {"frontend.licm_ms", "ms"},
        {"frontend.ir_insts.codegen", "count"},
        {"frontend.ir_insts.mem2reg", "count"},
        {"frontend.ir_insts.final", "count"},
        {"ir.verify_final_ms", "ms"},
        {"ir.verify_detailed_ms", "ms"},
        {"analysis.cfg_ms", "ms"},
        {"analysis.dom_ms", "ms"},
        {"analysis.postdom_ms", "ms"},
        {"analysis.loops_ms", "ms"},
        {"analysis.candidate_index_ms", "ms"},
    };
    for (const std::string &idiom : repro::idioms::topLevelIdioms()) {
        m.push_back({"solver." + idiom + "_ms", "ms"});
        m.push_back({"solver." + idiom + ".assignments", "count"});
        m.push_back({"solver." + idiom + ".checks", "count"});
        m.push_back({"solver." + idiom + ".solutions", "count"});
    }
    const std::vector<MetricSpec> rest = {
        {"solver.matches", "count"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.evictions", "count"},
        {"cache.hit_rate", "ratio"},
        {"cache.match_ms", "ms"},
        {"transform.plan_ms", "ms"},
        {"transform.select_ms", "ms"},
        {"transform.validate_ms", "ms"},
        {"transform.commit_ms", "ms"},
        {"transform.planned", "count"},
        {"transform.unplannable", "count"},
        {"transform.dropped_overlap", "count"},
        {"transform.failed_validation", "count"},
        {"transform.committed", "count"},
        {"transform.rolled_back", "count"},
        {"interp.lower_ms", "ms"},
        {"interp.exec_ms", "ms"},
        {"interp.steps", "count"},
        {"service.submit_ms", "ms"},
        {"service.compile_ms", "ms"},
        {"service.match_ms", "ms"},
        {"service.wait_ms", "ms"},
        {"service.wire_ms", "ms"},
        {"driver.serial_ms", "ms"},
        {"driver.parallel_ms", "ms"},
        {"driver.parallel_efficiency", "ratio"},
        {"trace.overhead_pct", "%"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    const int n = CPU_COUNT(&set);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload=<suite-e2e|suite-parallel-match|"
                 "service-warm-edit|service-concurrent-churn> "
                 "--seed=<n> --seconds=<s> --trace=<0|1> "
                 "--daemon=<path> --workdir=<dir> [--inject-defect] "
                 "[--cpu-max=<text>] [--commit=<text>]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string cpuMax = "unknown", commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char *key) -> const char * {
            const size_t n = std::strlen(key);
            return a.compare(0, n, key) == 0 ? argv[i] + n : nullptr;
        };
        if (const char *v = value("--workload="))
            opts.workload = v;
        else if (const char *v = value("--seed="))
            opts.seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--seconds="))
            opts.seconds = std::atof(v);
        else if (const char *v = value("--trace="))
            opts.trace = std::strcmp(v, "1") == 0;
        else if (const char *v = value("--daemon="))
            opts.daemon = v;
        else if (const char *v = value("--workdir="))
            opts.workdir = v;
        else if (const char *v = value("--cpu-max="))
            cpuMax = v;
        else if (const char *v = value("--commit="))
            commit = v;
        else if (a == "--inject-defect")
            opts.injectDefect = true;
        else
            return usage(argv[0]);
    }
    if (opts.workload.empty() || opts.daemon.empty() ||
        opts.workdir.empty() || opts.seconds <= 0.0)
        return usage(argv[0]);

    // Boundary verification (REPRO_VERIFY) would add a verifier pass
    // to every pipeline stage; such numbers are not comparable.
    const char *verify = std::getenv("REPRO_VERIFY");
    if (verify && *verify) {
        std::fprintf(stderr, "perfbench: refusing to run with "
                             "REPRO_VERIFY set\n");
        return 3;
    }
    opts.nproc = onlineCpus();

    std::printf("env {\"nproc\": %u, \"cpu_max\": %s, \"build_type\": %s, "
                "\"compiler\": %s, \"commit\": %s, \"seed\": %llu, "
                "\"workload\": %s, \"trace\": %d, \"seconds\": %g}\n",
                opts.nproc, jsonString(cpuMax).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                jsonString(PERFBENCH_COMPILER).c_str(),
                jsonString(commit).c_str(),
                static_cast<unsigned long long>(opts.seed),
                jsonString(opts.workload).c_str(), opts.trace ? 1 : 0,
                opts.seconds);
    std::fflush(stdout);

    RunResult r;
    try {
        if (opts.workload == "suite-e2e")
            r = runSuiteE2E(opts);
        else if (opts.workload == "suite-parallel-match")
            r = runSuiteParallelMatch(opts);
        else if (opts.workload == "service-warm-edit")
            r = runServiceWarmEdit(opts);
        else if (opts.workload == "service-concurrent-churn")
            r = runServiceConcurrentChurn(opts);
        else
            return usage(argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (r.threads > opts.nproc)
        r.fail("generator used more threads than nproc");
    for (const auto &g : r.guardErrors)
        std::fprintf(stderr, "perfbench: guard failed: %s\n", g.c_str());
    if (r.attempted == 0)
        r.fail("no operation completed");

    std::string metrics;
    for (const auto &spec :
         opts.trace ? perLayerMetrics() : endToEndMetrics()) {
        auto it = r.metrics.find(spec.name);
        double v = it == r.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            r.fail("metric " + spec.name + " is not a finite number");
            v = 0.0;
        }
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", v);
        metrics += (metrics.empty() ? "" : ", ") + jsonString(spec.name) +
                   ": {\"value\": " + num +
                   ", \"unit\": " + jsonString(spec.unit) + "}";
    }
    const bool correct = r.failed == 0 && r.guardErrors.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metrics.c_str());
    return 0;
}
