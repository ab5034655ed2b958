#include "core/result_cache.hh"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/observability.hh"
#include "stats/json.hh"

namespace emissary::core
{

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string
ResultCache::diskPath(const std::string &key) const
{
    if (dir_.empty())
        return {};
    return (std::filesystem::path(dir_) / (key + ".json")).string();
}

bool
ResultCache::lookup(const std::string &key,
                    const std::string &canonical,
                    CellCacheEntry &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = entries_.find(key);
    if (found != entries_.end()) {
        // Collision guard: the address matched, the identity must
        // too, or this is somebody else's result.
        if (found->second.canonical != canonical) {
            ++counters_.misses;
            return false;
        }
        out = found->second.payload;
        ++counters_.hits;
        return true;
    }
    if (readDiskLocked(key, canonical, out)) {
        ++counters_.hits;
        ++counters_.diskHits;
        return true;
    }
    ++counters_.misses;
    return false;
}

bool
ResultCache::readDiskLocked(const std::string &key,
                            const std::string &canonical,
                            CellCacheEntry &out)
{
    const std::string path = diskPath(key);
    if (path.empty())
        return false;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    // A torn write, hand-edited file or schema drift must read as a
    // miss, not abort the sweep.
    try {
        const stats::JsonValue doc =
            stats::JsonValue::parse(text.str());
        const stats::JsonValue *schema = doc.find("schema");
        const stats::JsonValue *stored = doc.find("canonical");
        const stats::JsonValue *metrics = doc.find("metrics");
        const stats::JsonValue *counters = doc.find("counters");
        if (!schema || !schema->isString() ||
            schema->asString() != "emissary.cell.v1" || !stored ||
            !stored->isString() || !metrics || !counters ||
            !counters->isObject())
            throw std::runtime_error("bad cell entry shape");
        if (stored->asString() != canonical)
            return false; // Different identity under this address.
        CellCacheEntry payload;
        payload.metrics = metricsFromJson(*metrics);
        payload.counters = *counters;
        out = payload;
        entries_.emplace(key, Entry{canonical, std::move(payload)});
        return true;
    } catch (const std::exception &) {
        ++counters_.rejected;
        return false;
    }
}

void
ResultCache::store(const std::string &key,
                   const std::string &canonical,
                   const CellCacheEntry &entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.find(key) != entries_.end())
        return; // Deterministic results: a re-store adds nothing.

    const std::string path = diskPath(key);
    if (!path.empty()) {
        stats::JsonValue doc = stats::JsonValue::object();
        doc.set("schema", stats::JsonValue("emissary.cell.v1"));
        doc.set("key", stats::JsonValue(key));
        doc.set("canonical", stats::JsonValue(canonical));
        doc.set("metrics", entry.metrics.toJson());
        doc.set("counters", entry.counters);
        // Write-then-rename so a crash mid-write leaves no torn
        // entry under the live name.
        const std::string tmp = path + ".tmp";
        stats::writeJsonFile(tmp, doc);
        std::filesystem::rename(tmp, path);
        ++counters_.diskWrites;
    }
    entries_.emplace(key, Entry{canonical, entry});
}

ResultCache::Snapshot
ResultCache::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot out = counters_;
    out.entries = entries_.size();
    return out;
}

} // namespace emissary::core
