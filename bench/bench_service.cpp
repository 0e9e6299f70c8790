/**
 * @file
 * Canonical measurement of the matching service: a synthetic
 * many-client edit trace replayed through MatchService, recording
 * per-submission latency and cache effectiveness.
 *
 * Each client owns a module of ~10 functions (idiomatic kernels —
 * reduction, histogram, stencil, gemm-like nest — plus plain
 * helpers), seeded with client-specific constants so every client's
 * first submission is a genuine cold solve. The trace then replays M
 * edits per client; each edit rewrites the embedded constants of 1-2
 * functions, exactly the incremental-recompilation shape an editor
 * integration produces. A warm submission therefore re-solves only
 * the edited functions and replays the rest from the shared
 * fingerprint-keyed cache.
 *
 * Reported: cold-submission latency (first submit per client) vs
 * warm-submission p50/p99, the cache hit rate over the whole trace,
 * and the p50 cold/warm speedup. After the trace, the cache is
 * snapshotted to disk and restored into a fresh service (a simulated
 * daemon restart), measuring save/load cost and the warm-restart
 * round: every client resubmitting its current module against the
 * recovered cache. Written as BENCH_service.json so the service
 * layer's perf trajectory is tracked per commit (the Release CI job
 * uploads the file as an artifact).
 *
 * Flags:
 *   --json=PATH    output path (default BENCH_service.json)
 *   --clients=N    concurrent client sessions (default 8)
 *   --edits=M      edits per client after the cold submit (default 25)
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "driver/cache_snapshot.h"
#include "service/service.h"

using namespace repro;

namespace {

constexpr size_t kFunctionsPerModule = 10;

/**
 * The synthetic module: ten functions whose loop bounds / constants
 * come from @p knobs (one knob per function), so editing knob i
 * recompiles to a module where exactly function i hashes differently.
 */
std::string
moduleSource(const std::vector<int> &knobs)
{
    const int *k = knobs.data();
    std::ostringstream os;
    os << "void reduce_sum(double *a, double *out) {\n"
          "    double s = 0.0;\n"
          "    for (int i = 0; i < " << 100 + k[0] << "; i++)\n"
          "        s = s + a[i];\n"
          "    out[0] = s;\n"
          "}\n"
          "void reduce_dot(double *a, double *b, double *out) {\n"
          "    double s = 0.0;\n"
          "    for (int i = 0; i < " << 100 + k[1] << "; i++)\n"
          "        s = s + a[i] * b[i];\n"
          "    out[0] = s;\n"
          "}\n"
          "void histogram(int *keys, int *bins) {\n"
          "    for (int i = 0; i < " << 100 + k[2] << "; i++)\n"
          "        bins[keys[i]] = bins[keys[i]] + 1;\n"
          "}\n"
          "void stencil3(double *in, double *out) {\n"
          "    for (int i = 1; i < " << 100 + k[3] << "; i++)\n"
          "        out[i] = in[i - 1] + in[i] + in[i + 1];\n"
          "}\n"
          "void gemm_like(double *a, double *b, double *c) {\n"
          "    for (int i = 0; i < " << 10 + k[4] % 7 << "; i++)\n"
          "        for (int j = 0; j < 12; j++) {\n"
          "            double s = 0.0;\n"
          "            for (int p = 0; p < 14; p++)\n"
          "                s = s + a[i * 14 + p] * b[p * 12 + j];\n"
          "            c[i * 12 + j] = s;\n"
          "        }\n"
          "}\n"
          "void scale(double *a, double *out) {\n"
          "    for (int i = 0; i < " << 100 + k[5] << "; i++)\n"
          "        out[i] = a[i] * " << 2 + k[5] % 5 << ".0;\n"
          "}\n"
          "void saxpy(double *x, double *y, double *out) {\n"
          "    for (int i = 0; i < " << 100 + k[6] << "; i++)\n"
          "        out[i] = " << 1 + k[6] % 9 << ".0 * x[i] + y[i];\n"
          "}\n"
          "int clampi(int x) {\n"
          "    if (x < " << k[7] % 50 << ")\n"
          "        return " << k[7] % 50 << ";\n"
          "    return x;\n"
          "}\n"
          "int mix(int a, int b) {\n"
          "    return a * " << 3 + k[8] % 11 << " + b * "
       << 5 + k[8] % 13 << ";\n"
          "}\n"
          "void memset_like(int *a) {\n"
          "    for (int i = 0; i < " << 100 + k[9] << "; i++)\n"
          "        a[i] = " << k[9] % 17 << ";\n"
          "}\n";
    return os.str();
}

/** Deterministic trace randomness (xorshift; seeded per run). */
struct Rng
{
    uint64_t state;

    uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_service.json";
    size_t clients = 8;
    size_t edits = 25;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
        else if (std::strncmp(argv[i], "--clients=", 10) == 0)
            clients = static_cast<size_t>(std::atoll(argv[i] + 10));
        else if (std::strncmp(argv[i], "--edits=", 8) == 0)
            edits = static_cast<size_t>(std::atoll(argv[i] + 8));
    }

    service::MatchService svc;
    Rng rng{0x9e3779b97f4a7c15ull};

    // Client-specific knob vectors: every client cold-solves its own
    // ten functions (no cross-client freebies on the first submit).
    std::vector<std::vector<int>> knobs(clients);
    for (size_t c = 0; c < clients; ++c) {
        knobs[c].resize(kFunctionsPerModule);
        for (size_t f = 0; f < kFunctionsPerModule; ++f)
            knobs[c][f] =
                static_cast<int>((rng.next() >> 17) % 4000);
    }

    // Whole-submission latency (compile + match), and the match phase
    // alone: recompilation cost is paid either way, so the match
    // phase is where the cache's effect is undiluted.
    std::vector<double> coldMs, warmMs, coldMatchMs, warmMatchMs;
    size_t totalMatches = 0;

    for (size_t c = 0; c < clients; ++c) {
        const std::string module = "client" + std::to_string(c);
        double t0 = bench::nowMs();
        auto outcome = svc.submit(module, moduleSource(knobs[c]));
        coldMs.push_back(bench::nowMs() - t0);
        coldMatchMs.push_back(outcome.matchMillis);
        if (!outcome.ok) {
            std::fprintf(stderr, "FAIL: cold submit (%s): %s\n",
                         module.c_str(), outcome.error.c_str());
            return 1;
        }
        totalMatches += outcome.matches;
    }

    // The edit trace: clients interleave round-robin, each edit
    // touching one or two of the ten functions.
    for (size_t e = 0; e < edits; ++e) {
        for (size_t c = 0; c < clients; ++c) {
            const size_t touched = 1 + rng.next() % 2;
            for (size_t t = 0; t < touched; ++t) {
                const size_t f = rng.next() % kFunctionsPerModule;
                knobs[c][f] =
                    static_cast<int>((rng.next() >> 17) % 4000);
            }
            const std::string module = "client" + std::to_string(c);
            double t0 = bench::nowMs();
            auto outcome = svc.submit(module, moduleSource(knobs[c]));
            warmMs.push_back(bench::nowMs() - t0);
            warmMatchMs.push_back(outcome.matchMillis);
            if (!outcome.ok) {
                std::fprintf(stderr, "FAIL: edit submit (%s): %s\n",
                             module.c_str(), outcome.error.c_str());
                return 1;
            }
            totalMatches += outcome.matches;
        }
    }

    // Snapshot + warm restart: persist the trace-heated cache, load
    // it into a fresh service (what --snapshot= does across a daemon
    // restart), and replay every client's current module. With the
    // cache recovered, the restart round should be all replays.
    const std::string snapPath =
        "/tmp/bench_service_" + std::to_string(::getpid()) + ".snap";
    double t0 = bench::nowMs();
    auto saved = driver::saveSnapshot(svc.cache(), snapPath);
    const double saveMs = bench::nowMs() - t0;
    if (!saved.ok) {
        std::fprintf(stderr, "FAIL: snapshot save: %s\n",
                     saved.detail.c_str());
        return 1;
    }

    service::MatchService restarted;
    t0 = bench::nowMs();
    auto loaded = driver::loadSnapshot(restarted.cache(), snapPath);
    const double loadMs = bench::nowMs() - t0;
    ::unlink(snapPath.c_str());
    if (!loaded.ok || loaded.records != saved.records) {
        std::fprintf(stderr,
                     "FAIL: snapshot load: %zu of %zu records (%s)\n",
                     loaded.records, saved.records,
                     loaded.detail.c_str());
        return 1;
    }

    std::vector<double> restartMs;
    for (size_t c = 0; c < clients; ++c) {
        const std::string module = "client" + std::to_string(c);
        t0 = bench::nowMs();
        auto outcome =
            restarted.submit(module, moduleSource(knobs[c]));
        restartMs.push_back(bench::nowMs() - t0);
        if (!outcome.ok) {
            std::fprintf(stderr, "FAIL: restart submit (%s): %s\n",
                         module.c_str(), outcome.error.c_str());
            return 1;
        }
    }
    const auto restartCounters = restarted.cache().counters();
    const double restartHitRate =
        restartCounters.hits + restartCounters.misses > 0
            ? static_cast<double>(restartCounters.hits) /
                  static_cast<double>(restartCounters.hits +
                                      restartCounters.misses)
            : 0.0;
    const double restartP50 = percentile(restartMs, 0.50);

    const auto counters = svc.cache().counters();
    const double hitRate =
        counters.hits + counters.misses > 0
            ? static_cast<double>(counters.hits) /
                  static_cast<double>(counters.hits + counters.misses)
            : 0.0;
    const double coldP50 = percentile(coldMs, 0.50);
    const double warmP50 = percentile(warmMs, 0.50);
    const double warmP99 = percentile(warmMs, 0.99);
    const double speedup = warmP50 > 0.0 ? coldP50 / warmP50 : 0.0;
    const double coldMatchP50 = percentile(coldMatchMs, 0.50);
    const double warmMatchP50 = percentile(warmMatchMs, 0.50);
    const double warmMatchP99 = percentile(warmMatchMs, 0.99);
    const double matchSpeedup =
        warmMatchP50 > 0.0 ? coldMatchP50 / warmMatchP50 : 0.0;

    std::printf("service bench: %zu clients x %zu edits "
                "(%zu warm submissions)\n",
                clients, edits, warmMs.size());
    std::printf("  cold  p50 %.3f ms  mean %.3f ms  "
                "(match phase p50 %.3f ms)\n",
                coldP50, mean(coldMs), coldMatchP50);
    std::printf("  warm  p50 %.3f ms  p99 %.3f ms  mean %.3f ms  "
                "(match phase p50 %.3f ms, p99 %.3f ms)\n",
                warmP50, warmP99, mean(warmMs), warmMatchP50,
                warmMatchP99);
    std::printf("  cache hit rate %.1f%% (%llu hits, %llu misses, "
                "%llu evictions)\n",
                hitRate * 100.0,
                static_cast<unsigned long long>(counters.hits),
                static_cast<unsigned long long>(counters.misses),
                static_cast<unsigned long long>(counters.evictions));
    std::printf("  p50 cold/warm speedup %.1fx end-to-end, "
                "%.1fx match phase\n",
                speedup, matchSpeedup);
    std::printf("  snapshot save %.3f ms, load %.3f ms "
                "(%zu records, %llu bytes)\n",
                saveMs, loadMs, saved.records,
                static_cast<unsigned long long>(saved.bytes));
    std::printf("  warm restart p50 %.3f ms, hit rate %.1f%% "
                "(%zu submissions)\n",
                restartP50, restartHitRate * 100.0,
                restartMs.size());

    std::ofstream out(json_path);
    out << "{\n"
        << "  \"workload\": \"service-edit-trace\",\n"
        << "  \"clients\": " << clients << ",\n"
        << "  \"edits_per_client\": " << edits << ",\n"
        << "  \"functions_per_module\": " << kFunctionsPerModule
        << ",\n"
        << "  \"cold_submissions\": " << coldMs.size() << ",\n"
        << "  \"warm_submissions\": " << warmMs.size() << ",\n"
        << "  \"total_matches\": " << totalMatches << ",\n"
        << "  \"cold_p50_ms\": " << coldP50 << ",\n"
        << "  \"cold_mean_ms\": " << mean(coldMs) << ",\n"
        << "  \"warm_p50_ms\": " << warmP50 << ",\n"
        << "  \"warm_p99_ms\": " << warmP99 << ",\n"
        << "  \"warm_mean_ms\": " << mean(warmMs) << ",\n"
        << "  \"cold_match_p50_ms\": " << coldMatchP50 << ",\n"
        << "  \"warm_match_p50_ms\": " << warmMatchP50 << ",\n"
        << "  \"warm_match_p99_ms\": " << warmMatchP99 << ",\n"
        << "  \"p50_speedup\": " << speedup << ",\n"
        << "  \"p50_match_speedup\": " << matchSpeedup << ",\n"
        << "  \"cache_hits\": " << counters.hits << ",\n"
        << "  \"cache_misses\": " << counters.misses << ",\n"
        << "  \"cache_evictions\": " << counters.evictions << ",\n"
        << "  \"cache_hit_rate\": " << hitRate << ",\n"
        << "  \"snapshot_save_ms\": " << saveMs << ",\n"
        << "  \"snapshot_load_ms\": " << loadMs << ",\n"
        << "  \"snapshot_records\": " << saved.records << ",\n"
        << "  \"snapshot_bytes\": " << saved.bytes << ",\n"
        << "  \"restart_submissions\": " << restartMs.size() << ",\n"
        << "  \"restart_p50_ms\": " << restartP50 << ",\n"
        << "  \"restart_hit_rate\": " << restartHitRate << "\n"
        << "}\n";
    out.close();
    if (out.fail()) {
        std::fprintf(stderr, "FAIL: could not write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());

    // An incremental service that misses its own cache is broken:
    // each edit touches at most 2 of 10 functions, so the steady
    // state must replay the large majority of submissions.
    if (hitRate < 0.5) {
        std::fprintf(stderr,
                     "FAIL: warm hit rate %.1f%% below 50%%\n",
                     hitRate * 100.0);
        return 1;
    }
    // A restart that re-solves what the snapshot recovered defeats
    // the persistence: every current body was cached pre-save, so
    // the restart round must be overwhelmingly replays.
    if (restartHitRate < 0.9) {
        std::fprintf(stderr,
                     "FAIL: warm-restart hit rate %.1f%% below 90%%\n",
                     restartHitRate * 100.0);
        return 1;
    }
    return 0;
}
