#include "service/service.h"

#include <chrono>
#include <map>

#include "frontend/compiler.h"
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

    // Compile into a fresh module, reusing the session's last one: a
    // failed submission must leave the previous session fully intact.
    // compileMiniC verifies the whole final module in every
    // VerifyMode, so nothing malformed reaches the shared cache.
    auto session = sessions_.find(moduleName);
    auto compiled = std::make_unique<frontend::CompiledModule>();
    ir::Module &module = compiled->module;
    module.setName(moduleName);
    auto t0 = std::chrono::steady_clock::now();
    DiagEngine diags;
    if (!frontend::compileMiniC(
            source, *compiled, diags,
            session != sessions_.end() ? session->second.compiled.get()
                                       : nullptr)) {
        outcome.error = diags.all().empty()
                            ? std::string("compilation failed")
                            : diags.all().front().str();
        return outcome;
    }
    outcome.compileMillis = millisSince(t0);
    counters_.compiled += compiled->compiled;
    counters_.reused += compiled->reused;

    // One driver per request, sharing only the MatchCache. The
    // deadline clock starts when the solve starts, not when the
    // request was parsed: compile time is not solver effort.
    driver::DriverOptions driverOpts;
    driverOpts.limits = solver::SolverLimits::withDeadline(
        opts_.limits, deadlineMillis != 0 ? deadlineMillis
                                          : opts_.defaultDeadlineMillis);
    driverOpts.cache = cache_;
    driverOpts.backends.policy = opts_.backendPolicy;
    driver::MatchingDriver driver(driverOpts);
    t0 = std::chrono::steady_clock::now();
    driver::MatchReport report = driver.matchModule(module);
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
                 module, report.allMatches(), config))
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

    // The outcome holds no pointers into the module.
    sessions_[moduleName] = Session{outcome, std::move(compiled)};
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
    counters_ = {};
}

size_t
MatchService::sessionCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

CompileCounters
MatchService::compileCounters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

} // namespace repro::service
