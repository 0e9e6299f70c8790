/**
 * @file
 * Cross-request match cache: the store behind matching-as-a-service.
 *
 * One solve of one function against the idiom library is pure in
 * exactly two inputs: the structure of the function body and the
 * idiom set. The cache therefore keys entries by the pair
 * (ir::Function::contentHash(), idioms::idiomSetHash()) — not by
 * function name, module or address — so a resubmitted module pays
 * solver time only for functions whose structure actually changed,
 * and two clients submitting the same kernel share one entry.
 *
 * Solutions bind ir::Value pointers into one module's IR, which makes
 * them worthless across requests (the submitting module is recompiled
 * every time). Entries therefore store matches in a *portable*
 * encoding: every bound value becomes a PortableValue naming its
 * structural position (argument index, layout-order instruction
 * index) or its module-independent identity (constant type + bit
 * pattern, global/function name). Replaying an entry re-anchors those
 * positions onto the fresh function's IR — which is guaranteed to be
 * structurally identical because its content hash matched — and
 * materializes ordinary IdiomMatch objects. Re-anchoring is validated
 * by membership (every index in range, every name resolvable), the
 * same no-deref discipline the transactional RewriteEngine applies to
 * its plans; any failure falls back to a fresh solve. Because that
 * validation is membership-only, entries also carry a
 * StructuralSignature (arg/block/instruction counts) checked before
 * replay, so a 64-bit contentHash collision between two different
 * bodies degrades to a fresh solve instead of wrong matches.
 *
 * Entries also carry the function's SolveStats, so replayed reports
 * are byte-identical to cold ones. Nothing in an entry references
 * live IR.
 *
 * Size-bounded: least-recently-used entries are evicted beyond
 * capacity(). All operations are mutex-guarded, so parallel matching
 * shards and concurrent service connections share one cache safely.
 */
#ifndef DRIVER_MATCH_CACHE_H
#define DRIVER_MATCH_CACHE_H

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "idioms/library.h"
#include "solver/solver.h"

namespace repro::driver {

/** Cache key: structural function identity × idiom-set identity. */
struct CacheKey
{
    uint64_t contentHash = 0;
    uint64_t idiomSetHash = 0;

    bool
    operator<(const CacheKey &o) const
    {
        return contentHash != o.contentHash
                   ? contentHash < o.contentHash
                   : idiomSetHash < o.idiomSetHash;
    }
};

/** Module-independent encoding of one bound IR value. */
struct PortableValue
{
    enum class Kind : uint8_t
    {
        Arg,      ///< argument, by index
        Inst,     ///< instruction, by layout-order index
        IntConst, ///< interned integer constant: type text + value
        FPConst,  ///< interned fp constant: type text + bit pattern
        Global,   ///< global variable, by name
        Func,     ///< function reference, by name
    };

    Kind kind = Kind::Inst;
    uint32_t index = 0;  ///< Arg / Inst position
    int64_t bits = 0;    ///< constant payload (fp via bit pattern)
    std::string text;    ///< constant type text, or global/func name
};

/** One match with its solution bindings in portable form. */
struct PortableMatch
{
    std::string idiom;
    idioms::IdiomClass cls = idioms::IdiomClass::Other;
    /** (variable name, bound value), in Solution::bindings order. */
    std::vector<std::pair<std::string, PortableValue>> bindings;
};

/**
 * Cheap structural second factor next to the 64-bit contentHash.
 * FNV-1a has weak diffusion, so a long-lived shared cache cannot rest
 * on hash equality alone: replay validation is membership-only, and a
 * colliding entry would silently re-anchor wrong matches. A count
 * mismatch downgrades the collision to a plain miss (fresh solve).
 */
struct StructuralSignature
{
    uint32_t numArgs = 0;
    uint32_t numBlocks = 0;
    uint32_t numInsts = 0;

    bool
    operator==(const StructuralSignature &o) const
    {
        return numArgs == o.numArgs && numBlocks == o.numBlocks &&
               numInsts == o.numInsts;
    }

    bool
    operator!=(const StructuralSignature &o) const
    {
        return !(*this == o);
    }
};

/** One cached per-function solve result. */
struct CachedMatches
{
    std::vector<PortableMatch> matches;
    /** Shape of the solved function; checked before any replay. */
    StructuralSignature signature;
    /** Solver effort of the original solve, replayed into reports. */
    solver::SolveStats stats;
};

/** Monotonic effectiveness counters (reported by STATS / benches). */
struct CacheCounters
{
    uint64_t hits = 0;       ///< replays served from the cache
    uint64_t misses = 0;     ///< solves that had to run
    uint64_t evictions = 0;  ///< entries dropped by the LRU bound
    uint64_t insertions = 0; ///< entries stored
};

/** The size-bounded LRU store. */
class MatchCache
{
  public:
    explicit MatchCache(size_t capacity = kDefaultCapacity);

    static constexpr size_t kDefaultCapacity = 1024;

    /**
     * Entry for @p key, or nullptr. Touches recency but not the
     * hit/miss counters: the caller decides whether the entry was
     * actually usable (re-anchoring can fail) and reports via
     * countHit()/countMiss().
     */
    std::shared_ptr<const CachedMatches> lookup(const CacheKey &key);

    /** Store (or refresh) the entry for @p key. */
    void insert(const CacheKey &key, CachedMatches value);

    void countHit();
    void countMiss();

    /** Shrinking below size() evicts LRU entries immediately. */
    void setCapacity(size_t capacity);
    size_t capacity() const;
    size_t size() const;

    CacheCounters counters() const;

    /** Drop every entry (counters survive; eviction count grows). */
    void clear();

    /**
     * Every entry in MRU-first order, without touching recency or
     * counters. The snapshot writer (driver/cache_snapshot.h) walks
     * this; entries are shared_ptrs, so a concurrent insert/evict
     * never invalidates the returned view.
     */
    std::vector<std::pair<CacheKey, std::shared_ptr<const CachedMatches>>>
    entriesMruFirst() const;

    /**
     * Insert without counting an insertion: the snapshot loader's
     * path, so a restart's recovered entries do not masquerade as
     * request-driven cache activity in STATS. Same LRU/eviction
     * behavior as insert().
     */
    void restore(const CacheKey &key, CachedMatches value);

    // Portable encoding ---------------------------------------------------

    /** The structural signature of @p func (arg/block/inst counts). */
    static StructuralSignature signatureOf(const ir::Function *func);

    /**
     * Encode @p matches of @p func portably. Returns false (leaving
     * @p out unspecified) when any binding cannot be encoded — a
     * value owned by another function has no stable position — in
     * which case the function must not be cached.
     */
    static bool capture(const std::vector<idioms::IdiomMatch> &matches,
                        const ir::Function *func,
                        std::vector<PortableMatch> *out);

    /**
     * Re-anchor @p matches onto @p func, materializing solutions that
     * bind @p func's own IR. Validation is by membership: every
     * position must be in range and every name resolvable in @p
     * func's module. Returns false (leaving @p out unspecified) on
     * any failure; the caller falls back to a fresh solve.
     */
    static bool reanchor(const std::vector<PortableMatch> &matches,
                         ir::Function *func,
                         std::vector<idioms::IdiomMatch> *out);

  private:
    /** MRU-first entry list; the map indexes into it. */
    using LruList =
        std::list<std::pair<CacheKey, std::shared_ptr<CachedMatches>>>;

    void insertLocked(const CacheKey &key, CachedMatches value);
    void evictOverCapacityLocked();

    mutable std::mutex mutex_;
    size_t capacity_;
    LruList lru_;
    std::map<CacheKey, LruList::iterator> index_;
    CacheCounters counters_;
};

} // namespace repro::driver

#endif // DRIVER_MATCH_CACHE_H
