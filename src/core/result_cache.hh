/**
 * @file
 * Content-addressed cell-result cache: an in-memory index over
 * core::CellCacheEntry payloads, backed by an on-disk store of
 * "emissary.cell.v1" JSON files so results survive the process
 * (same build SHA, same workload content → same key → warm start).
 * emissary_sim --cache-dir wires it into sweep and catalog runs.
 *
 * Keys are core::cellCacheKey content addresses. Every entry carries
 * its full canonical identity string and lookup compares it, so an
 * FNV collision or a stale/corrupt disk file degrades to a miss,
 * never to a wrong result. runGrid only ever stores what it just
 * simulated, so determinism (bit-identical results for identical
 * identity) is what makes the memoization sound. Safe to call from
 * several pool workers at once.
 */

#ifndef EMISSARY_CORE_RESULT_CACHE_HH
#define EMISSARY_CORE_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/grid.hh"

namespace emissary::core
{

class ResultCache
{
  public:
    /**
     * @param dir Directory of the on-disk store; created on first
     *        write. Empty = memory-only (nothing survives the
     *        process).
     */
    explicit ResultCache(std::string dir);

    /** Fetch the entry under @p key; false on miss. */
    bool lookup(const std::string &key, const std::string &canonical,
                CellCacheEntry &out);

    /** Publish a freshly simulated entry under @p key. */
    void store(const std::string &key, const std::string &canonical,
               const CellCacheEntry &entry);

    /** Point-in-time counters. */
    struct Snapshot
    {
        std::uint64_t entries = 0;    ///< In-memory entries.
        std::uint64_t hits = 0;       ///< Memory + disk hits.
        std::uint64_t diskHits = 0;   ///< Hits served from disk.
        std::uint64_t misses = 0;
        std::uint64_t diskWrites = 0;
        std::uint64_t rejected = 0;   ///< Corrupt/mismatched files.
    };
    Snapshot snapshot() const;

    /** On-disk file of @p key (empty when memory-only). */
    std::string diskPath(const std::string &key) const;

  private:
    struct Entry
    {
        std::string canonical;
        CellCacheEntry payload;
    };

    /** Disk probe under the lock; true when rehydrated into @p out. */
    bool readDiskLocked(const std::string &key,
                        const std::string &canonical,
                        CellCacheEntry &out);

    mutable std::mutex mutex_;
    std::string dir_;
    std::unordered_map<std::string, Entry> entries_;
    Snapshot counters_;
};

} // namespace emissary::core

#endif // EMISSARY_CORE_RESULT_CACHE_HH
