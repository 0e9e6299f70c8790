/**
 * @file
 * Matching-as-a-service session core.
 *
 * The batch pipeline recompiles, re-analyzes and re-solves everything
 * on every invocation; MatchService is the long-lived alternative a
 * daemon fronts. It keeps one session per client module name: the
 * outcome of its last successful submission and the module that
 * submission compiled to. Each submission compiles incrementally
 * against that module (frontend::CompiledModule): a function whose
 * source and the module's declarations did not change has its
 * optimized IR copied, and only the edited functions are compiled.
 * It then matches with a fresh MatchingDriver attached to the shared
 * MatchCache, so only the functions whose structural contentHash()
 * changed are re-solved — every unchanged function replays its
 * cached matches, re-anchored onto the new IR (see
 * driver/match_cache.h for the keying and portability story).
 *
 * The retained modules cost memory: about the IR of one module per
 * live session, until DROP or RESET frees it. No cap bounds it.
 *
 * The MatchCache is shared across all sessions: two clients
 * submitting the same kernel body share one entry, regardless of
 * module or function names.
 *
 * All public methods are mutex-guarded; concurrent connections of the
 * socket server may call into one MatchService freely. The cache
 * holds portable matches only, never pointers into a session's IR,
 * so replacing or dropping a session cannot leave anything dangling.
 * A session's module is matched once, then only read, by the
 * compile of the module's next submission.
 */
#ifndef SERVICE_SERVICE_H
#define SERVICE_SERVICE_H

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "frontend/compiler.h"

namespace repro::service {

/** Service configuration. */
struct ServiceOptions
{
    /** Limits forwarded to every constraint solve. */
    solver::SolverLimits limits;
    /** Match-cache entry bound (LRU beyond this). */
    size_t cacheCapacity = driver::MatchCache::kDefaultCapacity;
    /**
     * Solve deadline applied to every submission that does not carry
     * its own DEADLINE_MS; 0 = unbounded. Deadline expiry degrades
     * the response (partial matches, degraded=deadline), it never
     * fails it.
     */
    uint64_t defaultDeadlineMillis = 0;
    /**
     * Backend selection surfaced on MATCH lines. Under CostModel
     * every submission additionally plans each match against all
     * legal backend targets (static workload estimates — the service
     * never executes client code) and MATCH lines grow
     * backend=/cost_ms=/alt= keys; Fixed (default) keeps the wire
     * format byte-identical to earlier protocol v1 servers.
     */
    transform::BackendPolicy backendPolicy =
        transform::BackendPolicy::Fixed;
};

/** One matched idiom instance, in wire-friendly form. */
struct MatchOutcome
{
    std::string function;
    std::string idiom;
    idioms::IdiomClass cls = idioms::IdiomClass::Other;
    /** Backend selection (CostModel submissions only). */
    bool hasBackend = false;
    /** Chosen target token, e.g. "cuBLAS@GPU". */
    std::string backend;
    double predictedMs = 0.0;
    /** Rejected alternatives (token, predicted ms), cost-ascending. */
    std::vector<std::pair<std::string, double>> rejected;
};

/** Per-function result of one submission. */
struct FunctionOutcome
{
    std::string name;
    uint64_t contentHash = 0;
    size_t matches = 0;
    /** True when replayed from the cross-request cache. */
    bool fromCache = false;
};

/** Result of one SUBMIT. */
struct SubmitOutcome
{
    std::string module;
    bool ok = false;
    /** Compile diagnostics (first line) when !ok. */
    std::string error;

    /**
     * Empty for a complete solve; "budget" / "deadline" when the
     * solver gave up early. The matches listed are then valid but
     * possibly incomplete — and were NOT deposited into the shared
     * cache, so a later resubmission re-solves instead of replaying
     * the truncated result.
     */
    std::string degraded;

    size_t functions = 0;
    size_t matches = 0;
    /** Functions replayed from / missed in the shared cache. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    double compileMillis = 0.0;
    double matchMillis = 0.0;

    std::vector<FunctionOutcome> perFunction;
    std::vector<MatchOutcome> matchList;
};

/**
 * Functions compiled and copied by successful submissions since the
 * service started or was last reset (STATS compiled= and reused=).
 */
struct CompileCounters
{
    uint64_t compiled = 0;
    uint64_t reused = 0;
};

/** The long-lived matching service. */
class MatchService
{
  public:
    explicit MatchService(ServiceOptions opts = {});

    /**
     * Compile @p source as module @p moduleName and match it,
     * reusing the IR of every function the session's last module
     * already holds unchanged and replaying every function already
     * known to the cache. Replaces the module's previous session on
     * success; on a compile error the previous session (if any)
     * survives untouched.
     *
     * @p deadlineMillis bounds the solve wall-clock (0 = fall back
     * to ServiceOptions::defaultDeadlineMillis; 0 there too =
     * unbounded). An expired deadline still succeeds, with
     * SubmitOutcome::degraded set and partial matches.
     *
     * Nothing malformed reaches the session store or the shared
     * cache: compileMiniC's final IR verification runs in every
     * REPRO_VERIFY mode, and a module with an error-tier defect
     * fails the compile. The wire error is that compile error, e.g.
     * "error: invalid IR after lowering: rule=dom-use function=@f
     * ...", carrying the verifier's rule id and location.
     */
    SubmitOutcome submit(const std::string &moduleName,
                         const std::string &source,
                         uint64_t deadlineMillis = 0);

    /** The last successful outcome for @p moduleName, if any. */
    bool lastOutcome(const std::string &moduleName,
                     SubmitOutcome *out) const;

    /** Drop one session and its module; returns false when absent. */
    bool drop(const std::string &moduleName);

    /** Drop every session, every cache entry and the counters. */
    void reset();

    size_t sessionCount() const;

    CompileCounters compileCounters() const;

    /**
     * The shared match cache: its counters, size and capacity, and
     * snapshot save/load (see driver/cache_snapshot.h). The cache is
     * internally synchronized, so snapshotting while requests run is
     * safe — the writer walks a shared_ptr view, never the live LRU
     * list.
     */
    driver::MatchCache &cache() { return *cache_; }
    const driver::MatchCache &cache() const { return *cache_; }

  private:
    mutable std::mutex mutex_;
    ServiceOptions opts_;
    std::shared_ptr<driver::MatchCache> cache_;
    /** A module name's last successful submission. */
    struct Session
    {
        SubmitOutcome outcome;
        /** What the next submission compiles against. */
        std::unique_ptr<frontend::CompiledModule> compiled;
    };
    std::map<std::string, Session> sessions_;
    CompileCounters counters_;
};

} // namespace repro::service

#endif // SERVICE_SERVICE_H
