/**
 * @file
 * Shared plumbing of the perfbench binary: clocks, seeded randomness,
 * order statistics, the per-layer span accumulator and the result
 * line. See perfbench/BENCHMARK.md for what is measured and why.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** splitmix64: every generated input derives from the --seed value. */
struct Rng
{
    uint64_t state;

    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }
};

/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
inline double
quantile(const std::vector<double> &samples, double q)
{
    std::vector<double> v(samples);
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Per-layer accumulator of one traced operation (a pass or a SUBMIT):
 * span durations in ms and exact counters, keyed by the per-layer
 * metric name. Spans are recorded around calls into the program's
 * public functions from the benchmark's own files.
 */
class Layers
{
  public:
    void add(const std::string &name, double v) { values_[name] += v; }

    template <typename Fn>
    auto
    span(const std::string &name, Fn &&fn) -> decltype(fn())
    {
        struct Stop
        {
            Layers *self;
            const std::string &name;
            Clock::time_point t0;
            ~Stop() { self->add(name, msSince(t0)); }
        } stop{this, name, Clock::now()};
        return fn();
    }

    const std::map<std::string, double> &values() const
    {
        return values_;
    }

  private:
    std::map<std::string, double> values_;
};

/** What a workload run hands back to main(). */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Guard or harness failure that invalidates the whole run. */
    std::vector<std::string> guardErrors;
    std::map<std::string, double> metrics;
    /** Most threads or connections the generator ran at once. */
    unsigned threads = 1;

    void
    fail(const std::string &why)
    {
        guardErrors.push_back(why);
    }
};

/**
 * The per-layer values of every traced unit of a run (a pass, a
 * set-up or a block of SUBMITs). Timings (`_ms`, `_pct`) are reported
 * as their median over the units; every other value is an exact
 * counter, which must be identical in every unit (the determinism
 * guard).
 */
class LayerSeries
{
  public:
    void push(const Layers &l) { units_.push_back(l); }

    void
    report(RunResult &r, const std::string &what) const
    {
        std::map<std::string, std::vector<double>> series;
        for (const auto &u : units_) {
            for (const auto &[k, v] : u.values())
                series[k].push_back(v);
        }
        auto endsWith = [](const std::string &k, const char *suffix) {
            const std::string s(suffix);
            return k.size() > s.size() &&
                   k.compare(k.size() - s.size(), s.size(), s) == 0;
        };
        for (const auto &[k, vs] : series) {
            if (endsWith(k, "_ms") || endsWith(k, "_pct")) {
                r.metrics[k] = median(vs);
                continue;
            }
            for (double v : vs) {
                if (v != vs.front() || vs.size() != units_.size())
                    r.fail("counter " + k + " differs between " + what);
            }
            r.metrics[k] = vs.front();
        }
    }

  private:
    std::vector<Layers> units_;
};

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Negative self-test: seed this workload's defect. */
    bool injectDefect = false;
    /** Path of the repro_serviced binary under test. */
    std::string daemon;
    /** Scratch directory (relative to the checkout) for sockets. */
    std::string workdir;
    /** Online CPUs of this process (sched_getaffinity). */
    unsigned nproc = 1;
};

/** The four workloads. */
RunResult runSuiteE2E(const Options &opts);
RunResult runSuiteParallelMatch(const Options &opts);
RunResult runServiceWarmEdit(const Options &opts);
RunResult runServiceConcurrentChurn(const Options &opts);

/**
 * Peak resident set (VmHWM) of process @p pid ("self" by default) so
 * far, in MiB; 0 when unreadable. getrusage's ru_maxrss would carry
 * the launching process's peak across exec.
 */
double vmHwmMb(const std::string &pid = "self");

/** Median of @p reps set-up runs of @p fn, in seconds. */
template <typename Fn>
double
medianSetupSeconds(int reps, Fn &&fn)
{
    std::vector<double> s;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fn();
        s.push_back(msSince(t0) / 1000.0);
    }
    return median(s);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
