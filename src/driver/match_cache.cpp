#include "driver/match_cache.h"

#include <cstring>
#include <map>
#include <set>
#include <unordered_map>

#include "ir/function.h"
#include "ir/instruction.h"

namespace repro::driver {

MatchCache::MatchCache(size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const CachedMatches>
MatchCache::lookup(const CacheKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end())
        return nullptr;
    // Touch: move to the MRU front.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void
MatchCache::insert(const CacheKey &key, CachedMatches value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    insertLocked(key, std::move(value));
    ++counters_.insertions;
    evictOverCapacityLocked();
}

void
MatchCache::restore(const CacheKey &key, CachedMatches value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    insertLocked(key, std::move(value));
    evictOverCapacityLocked();
}

void
MatchCache::insertLocked(const CacheKey &key, CachedMatches value)
{
    auto entry = std::make_shared<CachedMatches>(std::move(value));
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = std::move(entry);
        lru_.splice(lru_.begin(), lru_, it->second);
    } else {
        lru_.emplace_front(key, std::move(entry));
        index_[key] = lru_.begin();
    }
}

std::vector<std::pair<CacheKey, std::shared_ptr<const CachedMatches>>>
MatchCache::entriesMruFirst() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<CacheKey, std::shared_ptr<const CachedMatches>>>
        out;
    out.reserve(lru_.size());
    for (const auto &[key, entry] : lru_)
        out.emplace_back(key, entry);
    return out;
}

void
MatchCache::countHit()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.hits;
}

void
MatchCache::countMiss()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.misses;
}

void
MatchCache::setCapacity(size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
    evictOverCapacityLocked();
}

size_t
MatchCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

size_t
MatchCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

CacheCounters
MatchCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
MatchCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.evictions += lru_.size();
    lru_.clear();
    index_.clear();
}

void
MatchCache::evictOverCapacityLocked()
{
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++counters_.evictions;
    }
}

namespace {

/** Constant identity that survives module boundaries. */
struct ConstKey
{
    std::string type;
    bool isFP = false;
    int64_t bits = 0;

    bool
    operator<(const ConstKey &o) const
    {
        if (type != o.type)
            return type < o.type;
        if (isFP != o.isFP)
            return isFP < o.isFP;
        return bits < o.bits;
    }
};

int64_t
constantBits(const ir::Constant *c)
{
    if (!c->isFP())
        return c->intValue();
    int64_t bits;
    double d = c->fpValue();
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

} // namespace

StructuralSignature
MatchCache::signatureOf(const ir::Function *func)
{
    StructuralSignature sig;
    sig.numArgs = static_cast<uint32_t>(func->numArgs());
    for (const auto &bb : func->blocks()) {
        ++sig.numBlocks;
        sig.numInsts += static_cast<uint32_t>(bb->insts().size());
    }
    return sig;
}

bool
MatchCache::capture(const std::vector<idioms::IdiomMatch> &matches,
                    const ir::Function *func,
                    std::vector<PortableMatch> *out)
{
    // Positional identity of every locally defined value, mirroring
    // the walk of Function::contentHash().
    std::unordered_map<const ir::Value *, uint32_t> local;
    uint32_t next = 0;
    uint32_t numArgs = static_cast<uint32_t>(func->numArgs());
    for (const auto &a : func->args())
        local.emplace(a.get(), next++);
    for (const auto &bb : func->blocks()) {
        for (const auto &inst : bb->insts())
            local.emplace(inst.get(), next++);
    }

    out->clear();
    out->reserve(matches.size());
    for (const auto &match : matches) {
        PortableMatch pm;
        pm.idiom = match.idiom;
        pm.cls = match.cls;
        pm.bindings.reserve(match.solution.bindings.size());
        for (const auto &[name, value] : match.solution.bindings) {
            PortableValue pv;
            auto it = local.find(value);
            if (it != local.end()) {
                if (it->second < numArgs) {
                    pv.kind = PortableValue::Kind::Arg;
                    pv.index = it->second;
                } else {
                    pv.kind = PortableValue::Kind::Inst;
                    pv.index = it->second - numArgs;
                }
            } else if (value->isConstant()) {
                const auto *c =
                    static_cast<const ir::Constant *>(value);
                pv.kind = c->isFP() ? PortableValue::Kind::FPConst
                                    : PortableValue::Kind::IntConst;
                pv.bits = constantBits(c);
                pv.text = c->type()->str();
            } else if (value->isGlobal()) {
                pv.kind = PortableValue::Kind::Global;
                pv.text = value->name();
            } else if (value->kind() == ir::ValueKind::FunctionRef) {
                pv.kind = PortableValue::Kind::Func;
                pv.text = value->name();
            } else {
                // A value of another function: no portable identity.
                return false;
            }
            pm.bindings.emplace_back(name, std::move(pv));
        }
        out->push_back(std::move(pm));
    }
    return true;
}

bool
MatchCache::reanchor(const std::vector<PortableMatch> &matches,
                     ir::Function *func,
                     std::vector<idioms::IdiomMatch> *out)
{
    ir::Module *module = func->parentModule();
    if (!module)
        return false;

    // The solve path numbers the function's values while building the
    // CandidateIndex (in Function::renumber() order). Replay skips
    // that, so number here — otherwise the replayed solutions print
    // "%-1" handles and warm fingerprints diverge from cold ones.
    // Like CandidateIndex (and unlike Function::renumber), only
    // function-owned values are written: module-interned constants
    // and globals are shared across functions, their ids are never
    // read, and writing them here would race between parallel
    // replay/solve workers. They still advance the counter so the
    // dense sequence matches the solve path's exactly.
    {
        int next = 0;
        std::set<const ir::Value *> seenShared;
        for (size_t i = 0; i < func->numArgs(); ++i)
            func->arg(i)->setId(next++);
        for (const auto &bb : func->blocks()) {
            for (const auto &inst : bb->insts()) {
                inst->setId(next++);
                for (const ir::Value *op : inst->operands()) {
                    if ((op->isConstant() || op->isGlobal()) &&
                        seenShared.insert(op).second)
                        ++next;
                }
            }
        }
    }

    // Layout-order value tables of the target function, plus the
    // constants it actually references (interned, hence unique per
    // (type, bits) within the module).
    std::vector<const ir::Value *> insts;
    std::map<ConstKey, const ir::Value *> consts;
    for (const auto &bb : func->blocks()) {
        for (const auto &inst : bb->insts()) {
            insts.push_back(inst.get());
            for (const ir::Value *op : inst->operands()) {
                if (!op->isConstant())
                    continue;
                const auto *c =
                    static_cast<const ir::Constant *>(op);
                consts.emplace(
                    ConstKey{c->type()->str(), c->isFP(),
                             constantBits(c)},
                    c);
            }
        }
    }

    out->clear();
    out->reserve(matches.size());
    for (const auto &pm : matches) {
        idioms::IdiomMatch match;
        match.idiom = pm.idiom;
        match.cls = pm.cls;
        match.function = func;
        for (const auto &[name, pv] : pm.bindings) {
            const ir::Value *value = nullptr;
            switch (pv.kind) {
              case PortableValue::Kind::Arg:
                if (pv.index < func->numArgs())
                    value = func->arg(pv.index);
                break;
              case PortableValue::Kind::Inst:
                if (pv.index < insts.size())
                    value = insts[pv.index];
                break;
              case PortableValue::Kind::IntConst:
              case PortableValue::Kind::FPConst: {
                auto it = consts.find(ConstKey{
                    pv.text,
                    pv.kind == PortableValue::Kind::FPConst,
                    pv.bits});
                if (it != consts.end())
                    value = it->second;
                break;
              }
              case PortableValue::Kind::Global:
                value = module->globalByName(pv.text);
                break;
              case PortableValue::Kind::Func:
                value = module->functionByName(pv.text);
                break;
            }
            if (!value)
                return false;
            match.solution.bindings.emplace(name, value);
        }
        out->push_back(std::move(match));
    }
    return true;
}

} // namespace repro::driver
