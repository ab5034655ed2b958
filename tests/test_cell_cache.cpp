/**
 * @file
 * Tests for the content-addressed cell-result cache:
 *
 *  - cell identity (core::cellCacheCanonical) covers exactly the
 *    inputs that can change a cell's Metrics — policy, config,
 *    workload content (synthetic seed, EMTC container), execution
 *    role and build SHA — and nothing cosmetic (display names);
 *  - the ResultCache round-trips entries, verifies canonicals,
 *    survives restarts through its disk tier and rejects corrupt
 *    files as misses;
 *  - the memoization contract: a warm runGrid serves every cell
 *    from cache with Metrics and counter registries bit-identical
 *    to a fresh sequential run, fused timing lanes are reusable by
 *    exact requests while monitor estimates never are, and config
 *    or sampling changes invalidate;
 *  - a sweep re-run against the same on-disk store (what
 *    emissary_sim --cache-dir does across processes) reproduces the
 *    cold sweep's JSON bit-identically, timing aside.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/result_cache.hh"
#include "core/threadpool.hh"
#include "replacement/spec.hh"
#include "stats/json.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "workload/emtc.hh"

namespace emissary
{
namespace
{

using core::CellCacheEntry;
using core::CellExecution;
using core::GridOptions;
using core::GridWorkload;
using core::Metrics;
using core::PolicyGrid;
using core::RunOptions;
using core::RunSpec;
using core::ResultCache;
using stats::JsonValue;

RunOptions
smallWindow()
{
    RunOptions options;
    options.warmupInstructions = 2'000;
    options.measureInstructions = 8'000;
    return options;
}

std::string
tempPath(const char *tag, const char *ext = "")
{
    return std::string(::testing::TempDir()) + "/emissary_cell_cache_" +
           tag + ext;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << bytes;
}

GridWorkload
syntheticWorkload(const char *name, std::uint64_t seed)
{
    trace::WorkloadProfile profile = trace::profileByName("tomcat");
    profile.name = name;
    profile.seed = seed;
    GridWorkload workload(profile);
    workload.name = name;
    return workload;
}

/** Canonical of @p workload under one fixed run/role/build. */
std::string
canonicalOf(const GridWorkload &workload,
            const std::string &policy = "TPLRU",
            const std::string &timing_policy = "",
            unsigned sampled_sets = 0,
            const std::string &sha = "sha-a")
{
    return core::cellCacheCanonical(
        workload, RunSpec(policy, smallWindow()), timing_policy,
        sampled_sets, sha);
}

void
expectMetricsIdentical(const Metrics &a, const Metrics &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1iMpki, b.l1iMpki);
    EXPECT_EQ(a.l1dMpki, b.l1dMpki);
    EXPECT_EQ(a.l2InstMpki, b.l2InstMpki);
    EXPECT_EQ(a.l2DataMpki, b.l2DataMpki);
    EXPECT_EQ(a.l3Mpki, b.l3Mpki);
    EXPECT_EQ(a.starvationCycles, b.starvationCycles);
    EXPECT_EQ(a.starvationIqEmptyCycles, b.starvationIqEmptyCycles);
    EXPECT_EQ(a.feStallCycles, b.feStallCycles);
    EXPECT_EQ(a.beStallCycles, b.beStallCycles);
    EXPECT_EQ(a.totalStallCycles, b.totalStallCycles);
    EXPECT_EQ(a.decodeRate, b.decodeRate);
    EXPECT_EQ(a.issueRate, b.issueRate);
    EXPECT_EQ(a.condMispredictsPerKi, b.condMispredictsPerKi);
    EXPECT_EQ(a.btbMissesPerKi, b.btbMissesPerKi);
    EXPECT_EQ(a.energy.coreDynamicJ, b.energy.coreDynamicJ);
    EXPECT_EQ(a.energy.cacheDynamicJ, b.energy.cacheDynamicJ);
    EXPECT_EQ(a.energy.dramJ, b.energy.dramJ);
    EXPECT_EQ(a.energy.leakageJ, b.energy.leakageJ);
    EXPECT_EQ(a.priorityDistribution, b.priorityDistribution);
    EXPECT_EQ(a.highPriorityFills, b.highPriorityFills);
    EXPECT_EQ(a.priorityUpgrades, b.priorityUpgrades);
    EXPECT_EQ(a.codeFootprintLines, b.codeFootprintLines);
}

void
expectRegistriesIdentical(const stats::Registry &a,
                          const stats::Registry &b)
{
    ASSERT_EQ(a.names(), b.names());
    for (const std::string &name : a.names())
        EXPECT_EQ(a.value(name), b.value(name)) << name;
}

// ---------------------------------------------------------------
// Cell identity: what the cache key must (and must not) cover.
// ---------------------------------------------------------------

TEST(CellKey, SensitiveToPolicyConfigWorkloadAndBuild)
{
    const GridWorkload base = syntheticWorkload("w", 7);
    const std::string c0 = canonicalOf(base);

    EXPECT_NE(canonicalOf(base, "LRU"), c0);

    RunSpec reseeded("TPLRU", smallWindow());
    reseeded.options.seed = smallWindow().seed + 1;
    EXPECT_NE(core::cellCacheCanonical(base, reseeded, "", 0,
                                       "sha-a"),
              c0);

    RunSpec wider("TPLRU", smallWindow());
    wider.options.measureInstructions *= 2;
    EXPECT_NE(core::cellCacheCanonical(base, wider, "", 0, "sha-a"),
              c0);

    EXPECT_NE(canonicalOf(syntheticWorkload("w", 8)), c0);

    EXPECT_NE(canonicalOf(base, "TPLRU", "", 0, "sha-b"), c0);
}

TEST(CellKey, DisplayNamesAreCosmetic)
{
    const GridWorkload original = syntheticWorkload("w", 7);
    const GridWorkload renamed = syntheticWorkload("other-name", 7);
    EXPECT_EQ(canonicalOf(renamed), canonicalOf(original));

    RunSpec labelled("pretty label", "TPLRU", smallWindow());
    EXPECT_EQ(core::cellCacheCanonical(original, labelled, "", 0,
                                       "sha-a"),
              canonicalOf(original));
}

TEST(CellKey, PolicyNotationNormalises)
{
    // An alias and its canonical expansion are one cache identity.
    const GridWorkload w = syntheticWorkload("w", 7);
    const std::string expanded =
        replacement::PolicySpec::parse("EMISSARY").toString();
    EXPECT_EQ(canonicalOf(w, "EMISSARY"), canonicalOf(w, expanded));
}

TEST(CellKey, RoleKeyingSeparatesExactAndMonitorResults)
{
    const GridWorkload w = syntheticWorkload("w", 7);
    const std::string exact = canonicalOf(w, "LRU", "", 0);

    // Sequential cells and fused timing lanes are bit-identical, so
    // the exact role ignores the sampling factor: a sampled sweep
    // still reuses full-fidelity timing-lane entries.
    EXPECT_EQ(canonicalOf(w, "LRU", "", 8), exact);

    // Monitor estimates are keyed by the policy of the timing lane
    // that drove their pass and by the sampling factor; none of
    // those identities can ever serve an exact request.
    const std::string monitor = canonicalOf(w, "LRU", "TPLRU", 0);
    EXPECT_NE(monitor, exact);
    EXPECT_NE(canonicalOf(w, "LRU", "TPLRU", 8), monitor);
    EXPECT_NE(canonicalOf(w, "LRU", "P(8):S&E", 0), monitor);
}

TEST(CellKey, EmtcIdentityIsContainerContent)
{
    trace::WorkloadProfile profile = trace::profileByName("tomcat");
    profile.seed = 99;
    const trace::SyntheticProgram program(profile);
    trace::SyntheticExecutor executor(program);
    std::vector<trace::TraceRecord> records(3'000);
    executor.fill(records.data(), records.size());

    const auto pack = [&](const char *tag,
                          const std::vector<trace::TraceRecord> &r) {
        const std::string path = tempPath(tag, ".emtc");
        workload::PackedTraceWriter writer(path, "emtc-test", 512);
        writer.append(r.data(), r.size());
        writer.finish();
        return path;
    };

    const GridWorkload a("a", pack("emtc_a", records));
    const GridWorkload b("b", pack("emtc_b", records));
    EXPECT_EQ(canonicalOf(a), canonicalOf(b));

    // The block-index CRC digests every block, so a single flipped
    // pc changes the identity even at equal record counts.
    std::vector<trace::TraceRecord> tweaked = records;
    tweaked[100].pc ^= 0x40;
    const GridWorkload c("c", pack("emtc_c", tweaked));
    EXPECT_NE(canonicalOf(c), canonicalOf(a));

    std::vector<trace::TraceRecord> shorter = records;
    shorter.pop_back();
    const GridWorkload d("d", pack("emtc_d", shorter));
    EXPECT_NE(canonicalOf(d), canonicalOf(a));

    // The served window is part of the identity too.
    const GridWorkload shifted("a", a.tracePath, 1);
    EXPECT_NE(canonicalOf(shifted), canonicalOf(a));
}

TEST(CellKey, UnreadableTraceThrows)
{
    const GridWorkload gone("gone", tempPath("missing", ".trc"));
    EXPECT_THROW(canonicalOf(gone), std::runtime_error);
    const GridWorkload packed("gone", tempPath("missing", ".emtc"));
    EXPECT_THROW(canonicalOf(packed), std::runtime_error);
}

TEST(CellKey, KeyIsAStableContentAddress)
{
    const std::string key = core::cellCacheKey("canonical-text");
    EXPECT_EQ(key.rfind("emc1-", 0), 0u);
    ASSERT_EQ(key.size(), 5u + 16u);
    for (std::size_t i = 5; i < key.size(); ++i)
        EXPECT_TRUE(std::isxdigit(
            static_cast<unsigned char>(key[i])))
            << key;
    EXPECT_EQ(core::cellCacheKey("canonical-text"), key);
    EXPECT_NE(core::cellCacheKey("canonical-texU"), key);
}

// ---------------------------------------------------------------
// ResultCache: memory index + disk tier.
// ---------------------------------------------------------------

CellCacheEntry
makeEntry(std::uint64_t tag)
{
    CellCacheEntry entry;
    entry.metrics.benchmark = "bench-" + std::to_string(tag);
    entry.metrics.policy = "TPLRU";
    entry.metrics.instructions = tag;
    entry.metrics.ipc = 1.25 + static_cast<double>(tag);
    JsonValue counters = JsonValue::object();
    counters.set("sim.l2.misses", JsonValue(tag * 11));
    entry.counters = std::move(counters);
    return entry;
}

void
expectEntryEqual(const CellCacheEntry &a, const CellCacheEntry &b)
{
    EXPECT_EQ(a.metrics.benchmark, b.metrics.benchmark);
    EXPECT_EQ(a.metrics.instructions, b.metrics.instructions);
    EXPECT_EQ(a.metrics.ipc, b.metrics.ipc);
    EXPECT_EQ(a.counters.dump(0), b.counters.dump(0));
}

TEST(ResultCache, MemoryRoundTripVerifiesCanonical)
{
    ResultCache cache("");
    CellCacheEntry out;
    EXPECT_FALSE(cache.lookup("emc1-k", "canon", out));

    cache.store("emc1-k", "canon", makeEntry(3));
    ASSERT_TRUE(cache.lookup("emc1-k", "canon", out));
    expectEntryEqual(out, makeEntry(3));

    // Same key, different canonical: a hash collision must degrade
    // to a miss, never serve the other identity's result.
    EXPECT_FALSE(cache.lookup("emc1-k", "other-canon", out));

    const ResultCache::Snapshot snap = cache.snapshot();
    EXPECT_EQ(snap.hits, 1u);
    EXPECT_EQ(snap.misses, 2u);
    EXPECT_EQ(snap.entries, 1u);
    EXPECT_EQ(snap.diskWrites, 0u); // memory-only
    EXPECT_EQ(cache.diskPath("emc1-k"), "");
}

TEST(ResultCache, DiskTierSurvivesRestart)
{
    const std::string dir = tempPath("cache_restart");
    const std::string key =
        core::cellCacheKey("restart-canonical");
    {
        ResultCache cache(dir);
        cache.store(key, "restart-canonical", makeEntry(17));
        EXPECT_EQ(cache.snapshot().diskWrites, 1u);
        std::ifstream on_disk(cache.diskPath(key));
        EXPECT_TRUE(on_disk.good());
    }
    ResultCache reborn(dir);
    CellCacheEntry out;
    ASSERT_TRUE(reborn.lookup(key, "restart-canonical", out));
    expectEntryEqual(out, makeEntry(17));
    EXPECT_EQ(reborn.snapshot().diskHits, 1u);
}

TEST(ResultCache, StoreIsIdempotent)
{
    const std::string dir = tempPath("cache_idem");
    ResultCache cache(dir);
    cache.store("emc1-i", "canon", makeEntry(1));
    cache.store("emc1-i", "canon", makeEntry(1));
    const ResultCache::Snapshot snap = cache.snapshot();
    EXPECT_EQ(snap.entries, 1u);
    EXPECT_EQ(snap.diskWrites, 1u);
}

TEST(ResultCache, CorruptDiskEntryDegradesToMiss)
{
    const std::string dir = tempPath("cache_corrupt");
    std::string disk_file;
    {
        ResultCache cache(dir);
        cache.store("emc1-c", "canon", makeEntry(5));
        disk_file = cache.diskPath("emc1-c");
    }
    writeFile(disk_file, "{ not json");

    ResultCache cache(dir);
    CellCacheEntry out;
    EXPECT_FALSE(cache.lookup("emc1-c", "canon", out));
    EXPECT_EQ(cache.snapshot().rejected, 1u);

    // A lookup that rejected a file must not poison later stores.
    cache.store("emc1-c", "canon", makeEntry(5));
    EXPECT_TRUE(cache.lookup("emc1-c", "canon", out));
}

// ---------------------------------------------------------------
// runGrid + cache: the memoization contract.
// ---------------------------------------------------------------

PolicyGrid
smallGrid(const std::vector<std::string> &policies)
{
    PolicyGrid grid;
    grid.workloads.push_back(syntheticWorkload("w0", 7));
    grid.workloads.push_back(syntheticWorkload("w1", 8));
    for (const std::string &policy : policies)
        grid.runs.emplace_back(policy, smallWindow());
    return grid;
}

TEST(GridCache, WarmSequentialRunBitIdenticalToFresh)
{
    const PolicyGrid grid = smallGrid({"TPLRU", "LRU"});
    core::ThreadPool pool(2);

    GridOptions oracle_options;
    oracle_options.collectRegistries = true;
    const core::GridResults oracle =
        runGrid(grid, pool, oracle_options);

    ResultCache cache("");
    GridOptions cached_options;
    cached_options.cellCache = &cache;

    const core::GridResults cold =
        runGrid(grid, pool, cached_options);
    const core::GridResults warm =
        runGrid(grid, pool, cached_options);

    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            EXPECT_EQ(cold.executionAt(w, r),
                      CellExecution::Sequential);
            ASSERT_EQ(warm.executionAt(w, r),
                      CellExecution::Cached);
            expectMetricsIdentical(warm.at(w, r), oracle.at(w, r));
            expectRegistriesIdentical(warm.registryAt(w, r),
                                      oracle.registryAt(w, r));
        }
    }
    EXPECT_EQ(cache.snapshot().hits, grid.cellCount());
}

TEST(GridCache, FusedWarmRunServesEveryLane)
{
    PolicyGrid grid = smallGrid({"TPLRU", "LRU", "P(8):S&E"});
    grid.workloads.pop_back(); // one row is enough here
    core::ThreadPool pool(2);

    ResultCache cache("");
    GridOptions fused;
    fused.fused = true;
    fused.cellCache = &cache;

    const core::GridResults cold = runGrid(grid, pool, fused);
    EXPECT_EQ(cold.executionAt(0, 0), CellExecution::FusedTiming);
    EXPECT_EQ(cold.executionAt(0, 1), CellExecution::FusedMonitor);

    const core::GridResults warm = runGrid(grid, pool, fused);
    for (std::size_t r = 0; r < grid.runs.size(); ++r) {
        ASSERT_EQ(warm.executionAt(0, r), CellExecution::Cached);
        expectMetricsIdentical(warm.at(0, r), cold.at(0, r));
    }
}

TEST(GridCache, ExactRequestsNeverReuseMonitorEstimates)
{
    PolicyGrid grid = smallGrid({"TPLRU", "LRU", "P(8):S&E"});
    grid.workloads.pop_back();
    core::ThreadPool pool(2);

    ResultCache cache("");
    GridOptions fused;
    fused.fused = true;
    fused.cellCache = &cache;
    runGrid(grid, pool, fused);

    // A sequential (exact) sweep over the same grid may reuse the
    // fused timing lane — it is bit-identical by construction — but
    // must re-simulate every monitor-lane estimate.
    GridOptions sequential;
    sequential.cellCache = &cache;
    const core::GridResults exact =
        runGrid(grid, pool, sequential);
    EXPECT_EQ(exact.executionAt(0, 0), CellExecution::Cached);
    EXPECT_EQ(exact.executionAt(0, 1), CellExecution::Sequential);
    EXPECT_EQ(exact.executionAt(0, 2), CellExecution::Sequential);
}

TEST(GridCache, SampledMonitorsAreKeyedBySamplingFactor)
{
    PolicyGrid grid = smallGrid({"TPLRU", "LRU", "P(8):S&E"});
    grid.workloads.pop_back();
    core::ThreadPool pool(2);

    ResultCache cache("");
    GridOptions fused;
    fused.fused = true;
    fused.cellCache = &cache;
    runGrid(grid, pool, fused); // cold, full-fidelity monitors

    // A sampled sweep reuses the exact timing lane (its role
    // ignores sampling) but not the full-fidelity monitor results.
    GridOptions sampled = fused;
    sampled.sampledSets = 8;
    const core::GridResults first = runGrid(grid, pool, sampled);
    EXPECT_EQ(first.executionAt(0, 0), CellExecution::Cached);
    EXPECT_EQ(first.executionAt(0, 1),
              CellExecution::FusedMonitorSampled);
    EXPECT_EQ(first.executionAt(0, 2),
              CellExecution::FusedMonitorSampled);

    const core::GridResults second = runGrid(grid, pool, sampled);
    for (std::size_t r = 0; r < grid.runs.size(); ++r)
        EXPECT_EQ(second.executionAt(0, r), CellExecution::Cached);
}

TEST(GridCache, ConfigChangeInvalidatesEveryCell)
{
    PolicyGrid grid = smallGrid({"TPLRU", "LRU"});
    core::ThreadPool pool(2);

    ResultCache cache("");
    GridOptions options;
    options.cellCache = &cache;
    runGrid(grid, pool, options);

    for (RunSpec &run : grid.runs)
        run.options.seed += 1;
    const core::GridResults warm = runGrid(grid, pool, options);
    for (std::size_t w = 0; w < grid.workloads.size(); ++w)
        for (std::size_t r = 0; r < grid.runs.size(); ++r)
            EXPECT_NE(warm.executionAt(w, r),
                      CellExecution::Cached);
}

TEST(GridCache, DiskWarmSweepJsonBitIdenticalToCold)
{
    // Two cache instances over one directory stand in for two
    // emissary_sim --cache-dir processes: the second sees only what
    // the first left on disk.
    const PolicyGrid grid = smallGrid({"TPLRU", "P(8):S&E"});
    const std::string dir = tempPath("cache_sweep");
    std::filesystem::remove_all(dir);
    core::ThreadPool pool(2);

    const auto sweep = [&](ResultCache &cache) {
        GridOptions options;
        options.cellCache = &cache;
        return core::sweepJson(grid, runGrid(grid, pool, options));
    };
    ResultCache cold_cache(dir);
    const JsonValue cold = sweep(cold_cache);
    EXPECT_EQ(cold_cache.snapshot().diskWrites, grid.cellCount());

    ResultCache warm_cache(dir);
    const JsonValue warm = sweep(warm_cache);
    EXPECT_EQ(warm_cache.snapshot().diskHits, grid.cellCount());

    const JsonValue &cold_runs = *cold.find("runs");
    const JsonValue &warm_runs = *warm.find("runs");
    ASSERT_EQ(warm_runs.size(), cold_runs.size());
    for (std::size_t i = 0; i < cold_runs.size(); ++i) {
        EXPECT_EQ(cold_runs.at(i).find("execution")->asString(),
                  "sequential");
        EXPECT_EQ(warm_runs.at(i).find("execution")->asString(),
                  "cached");
        EXPECT_EQ(warm_runs.at(i).find("metrics")->dump(0),
                  cold_runs.at(i).find("metrics")->dump(0))
            << "run " << i;
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace emissary
