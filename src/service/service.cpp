#include "service/service.h"

#include <chrono>
#include <map>

#include "frontend/compiler.h"
#include "ir/verifier.h"
#include "transform/rewrite.h"

namespace repro::service {

namespace {

double
millisSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

MatchService::MatchService(ServiceOptions opts)
    : opts_(opts),
      cache_(std::make_shared<driver::MatchCache>(opts.cacheCapacity))
{}

SubmitOutcome
MatchService::submit(const std::string &moduleName,
                     const std::string &source,
                     uint64_t deadlineMillis)
{
    std::lock_guard<std::mutex> lock(mutex_);

    SubmitOutcome outcome;
    outcome.module = moduleName;

    // Compile into a fresh module first: a failed submission must
    // leave the previous session fully intact.
    auto module = std::make_unique<ir::Module>();
    module->setName(moduleName);
    auto t0 = std::chrono::steady_clock::now();
    DiagEngine diags;
    if (!frontend::compileMiniC(source, *module, diags)) {
        outcome.error = diags.all().empty()
                            ? std::string("compilation failed")
                            : diags.all().front().str();
        return outcome;
    }
    // Defense in depth, always on regardless of VerifyMode: nothing
    // malformed may reach the session store or the shared match cache
    // (cached entries outlive the module that deposited them). The
    // rejection is structured — the wire error carries the verifier's
    // rule id and location, not a blurred "bad module".
    ir::VerifierReport vr = ir::verifyModuleDetailed(*module);
    if (vr.errorCount() != 0) {
        outcome.error = "invalid-ir " + vr.firstError().str();
        return outcome;
    }
    outcome.compileMillis = millisSince(t0);

    // One driver per request, sharing only the MatchCache. The
    // deadline clock starts when the solve starts, not when the
    // request was parsed: compile time is not solver effort.
    driver::DriverOptions driverOpts;
    driverOpts.limits = solver::SolverLimits::withDeadline(
        opts_.limits, deadlineMillis != 0 ? deadlineMillis
                                          : opts_.defaultDeadlineMillis);
    driverOpts.cache = cache_;
    driverOpts.backendPolicy = opts_.backendPolicy;
    driver::MatchingDriver driver(driverOpts);
    t0 = std::chrono::steady_clock::now();
    driver::MatchReport report = driver.matchModule(*module);
    outcome.matchMillis = millisSince(t0);

    outcome.ok = true;
    outcome.degraded = solver::solveStatusToken(report.status);
    outcome.functions = report.functions.size();
    outcome.matches = report.matchCount();
    outcome.cacheHits = report.cacheHits;
    outcome.cacheMisses = report.cacheMisses;
    // Backend selection for MATCH lines: plan every match (replayed
    // or fresh — the cache stores matches only, so selection always
    // reflects the CURRENT policy) against all legal targets and
    // rank by modeled cost. Planning is pure (no IR mutation, no
    // kernel extraction); a match the translation schemes cannot
    // express simply carries no backend keys.
    std::map<size_t, transform::BackendDecision> decisionByIndex;
    if (opts_.backendPolicy == transform::BackendPolicy::CostModel) {
        transform::BackendConfig config;
        config.policy = transform::BackendPolicy::CostModel;
        for (auto &d : transform::planBackendDecisions(
                 *module, report.allMatches(), config))
            decisionByIndex.emplace(d.matchIndex, std::move(d));
    }

    size_t matchIndex = 0;
    for (const auto &fr : report.functions) {
        FunctionOutcome fo;
        fo.name = fr.function->name();
        fo.contentHash = fr.contentHash;
        fo.matches = fr.matches.size();
        fo.fromCache = fr.fromCache;
        outcome.perFunction.push_back(std::move(fo));
        for (const auto &m : fr.matches) {
            MatchOutcome mo;
            mo.function = fr.function->name();
            mo.idiom = m.idiom;
            mo.cls = m.cls;
            auto it = decisionByIndex.find(matchIndex++);
            if (it != decisionByIndex.end()) {
                mo.hasBackend = true;
                mo.backend = runtime::backendToken(it->second.chosen);
                mo.predictedMs = it->second.chosen.predictedMs;
                for (const auto &alt : it->second.rejected)
                    mo.rejected.emplace_back(
                        runtime::backendToken(alt), alt.predictedMs);
            }
            outcome.matchList.push_back(std::move(mo));
        }
    }

    Session &session = sessions_[moduleName];
    session.source = source;
    // Destroying the replaced module is safe: the new report holds no
    // pointers into it.
    session.module = std::move(module);
    session.outcome = outcome;
    return outcome;
}

bool
MatchService::lastOutcome(const std::string &moduleName,
                          SubmitOutcome *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(moduleName);
    if (it == sessions_.end())
        return false;
    *out = it->second.outcome;
    return true;
}

bool
MatchService::drop(const std::string &moduleName)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(moduleName);
    if (it == sessions_.end())
        return false;
    sessions_.erase(it);
    return true;
}

void
MatchService::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.clear();
    cache_->clear();
}

size_t
MatchService::sessionCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

driver::CacheCounters
MatchService::cacheCounters() const
{
    return cache_->counters();
}

size_t
MatchService::cacheSize() const
{
    return cache_->size();
}

size_t
MatchService::cacheCapacity() const
{
    return cache_->capacity();
}

void
MatchService::setCacheCapacity(size_t capacity)
{
    cache_->setCapacity(capacity);
}

uint64_t
MatchService::idiomSetHash() const
{
    return idioms::idiomSetHash();
}

} // namespace repro::service
