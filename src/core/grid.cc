#include "core/grid.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <utility>

#include "cache/lanes.hh"
#include "core/buildinfo.hh"
#include "core/observability.hh"
#include "core/replay_build.hh"
#include "core/result_cache.hh"
#include "trace/executor.hh"
#include "trace/program.hh"
#include "trace/replay.hh"
#include "util/hash.hh"
#include "util/strutil.hh"
#include "workload/emtc.hh"

namespace emissary::core
{

using emissary::workload::readTraceInfo;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Stores seconds-since-@p start into @p out on scope exit; the
 *  program-build lambda has several return paths. */
struct BuildDone
{
    double &out;
    std::chrono::steady_clock::time_point start;
    ~BuildDone() { out = secondsSince(start); }
};

/**
 * Records one replay buffer must hold to cover every run spec of the
 * grid: the largest warmup+measure window, plus the cursor's
 * lookahead slack for frontend overfetch.
 */
std::uint64_t
recordsNeeded(const PolicyGrid &grid)
{
    std::uint64_t window = 0;
    for (const RunSpec &run : grid.runs)
        window = std::max(window, run.options.warmupInstructions +
                                      run.options.measureInstructions);
    return trace::RecordBuffer::recordsForWindow(window);
}

/**
 * Two run specs may share one fused pass only when every knob that
 * shapes the simulated machine or window agrees; the L2 policy is
 * the one axis the lanes vary.
 */
bool
sameRunKnobs(const RunOptions &a, const RunOptions &b)
{
    return a.warmupInstructions == b.warmupInstructions &&
           a.measureInstructions == b.measureInstructions &&
           a.fdip == b.fdip &&
           a.nextLinePrefetch == b.nextLinePrefetch &&
           a.idealL2Inst == b.idealL2Inst &&
           a.emissaryTreePlru == b.emissaryTreePlru &&
           a.l1iPolicy == b.l1iPolicy &&
           a.bypassLowPriorityInst == b.bypassLowPriorityInst &&
           a.priorityResetInstructions ==
               b.priorityResetInstructions &&
           a.seed == b.seed && a.sampledSets == b.sampledSets;
}

} // namespace

std::string
cellCacheCanonical(const GridWorkload &workload, const RunSpec &run,
                   const std::string &timing_policy,
                   unsigned sampled_sets,
                   const std::string &build_sha)
{
    using stats::JsonValue;

    JsonValue identity = JsonValue::object();
    identity.set("schema", JsonValue("emissary.cellkey.v1"));

    // Workload content, never its display name: renaming a workload
    // must not change its cached result.
    JsonValue source = JsonValue::object();
    if (workload.traceBacked()) {
        // The index CRC transitively digests every block's own CRC,
        // so these header fields identify the full payload without
        // decoding it.
        const auto info = readTraceInfo(workload.tracePath);
        source.set("type", JsonValue("emtc"));
        source.set("records", JsonValue(info.recordCount));
        source.set("records_per_block",
                   JsonValue(static_cast<std::uint64_t>(
                       info.recordsPerBlock)));
        source.set("blocks", JsonValue(static_cast<std::uint64_t>(
                                 info.blockCount)));
        source.set("unique_code_lines",
                   JsonValue(info.uniqueCodeLines));
        source.set("file_bytes", JsonValue(info.fileBytes));
        source.set("index_crc", JsonValue(static_cast<std::uint64_t>(
                                    info.indexCrc)));
        source.set("skip_records", JsonValue(workload.skipRecords));
        source.set("max_records", JsonValue(workload.maxRecords));
    } else {
        // Every generator parameter, seed included; together they
        // determine the synthetic stream bit-exactly.
        const trace::WorkloadProfile &p = workload.profile;
        source.set("type", JsonValue("synthetic"));
        source.set("code_footprint_bytes",
                   JsonValue(p.codeFootprintBytes));
        source.set("transaction_types",
                   JsonValue(static_cast<std::uint64_t>(
                       p.transactionTypes)));
        source.set("transaction_skew", JsonValue(p.transactionSkew));
        source.set("burst_repeat_probability",
                   JsonValue(p.burstRepeatProbability));
        source.set("burst_window",
                   JsonValue(static_cast<std::uint64_t>(
                       p.burstWindow)));
        source.set("function_skew", JsonValue(p.functionSkew));
        source.set("functions_per_transaction",
                   JsonValue(static_cast<std::uint64_t>(
                       p.functionsPerTransaction)));
        source.set("mean_block_instrs",
                   JsonValue(static_cast<std::uint64_t>(
                       p.meanBlockInstrs)));
        source.set("mean_blocks_per_function",
                   JsonValue(static_cast<std::uint64_t>(
                       p.meanBlocksPerFunction)));
        source.set("loop_fraction", JsonValue(p.loopFraction));
        source.set("mean_trip_count", JsonValue(p.meanTripCount));
        source.set("hard_branch_fraction",
                   JsonValue(p.hardBranchFraction));
        source.set("load_fraction", JsonValue(p.loadFraction));
        source.set("store_fraction", JsonValue(p.storeFraction));
        source.set("hot_data_bytes", JsonValue(p.hotDataBytes));
        source.set("hot_data_skew", JsonValue(p.hotDataSkew));
        source.set("cold_access_fraction",
                   JsonValue(p.coldAccessFraction));
        source.set("data_footprint_bytes",
                   JsonValue(p.dataFootprintBytes));
        source.set("stack_access_fraction",
                   JsonValue(p.stackAccessFraction));
        source.set("streaming_fraction",
                   JsonValue(p.streamingFraction));
        source.set("seed", JsonValue(p.seed));
    }
    identity.set("workload", std::move(source));

    // Canonical policy notation: aliases ("EMISSARY") and formatting
    // variants normalise to one spelling.
    identity.set("policy",
                 JsonValue(replacement::PolicySpec::parse(
                               run.l2Policy)
                               .toString()));
    identity.set("config",
                 JsonValue(canonicalRunOptions(run.options)));

    if (timing_policy.empty()) {
        identity.set("role", JsonValue("exact"));
    } else {
        identity.set("role",
                     JsonValue(sampled_sets > 1
                                   ? "monitor_sampled_" +
                                         std::to_string(sampled_sets)
                                   : std::string("monitor")));
        identity.set("timing_policy",
                     JsonValue(replacement::PolicySpec::parse(
                                   timing_policy)
                                   .toString()));
    }
    identity.set("build_sha", JsonValue(build_sha));
    return identity.dump(0);
}

std::string
cellCacheKey(const std::string &canonical)
{
    return "emc1-" + hex64(fnv1a64(canonical));
}

const char *
cellExecutionName(CellExecution execution)
{
    switch (execution) {
      case CellExecution::Sequential:
        return "sequential";
      case CellExecution::FusedTiming:
        return "fused_timing";
      case CellExecution::FusedMonitor:
        return "fused_monitor";
      case CellExecution::FusedMonitorSampled:
        return "fused_monitor_sampled";
      case CellExecution::Cached:
        return "cached";
    }
    return "unknown";
}

PolicyGrid
PolicyGrid::sweep(std::vector<trace::WorkloadProfile> workloads,
                  const std::vector<std::string> &policies,
                  const RunOptions &options)
{
    std::vector<GridWorkload> rows;
    rows.reserve(workloads.size());
    for (const trace::WorkloadProfile &profile : workloads)
        rows.emplace_back(profile);
    return sweep(std::move(rows), policies, options);
}

PolicyGrid
PolicyGrid::sweep(std::vector<GridWorkload> workloads,
                  const std::vector<std::string> &policies,
                  const RunOptions &options)
{
    PolicyGrid grid;
    grid.workloads = std::move(workloads);
    grid.runs.reserve(policies.size());
    for (const std::string &policy : policies)
        grid.runs.emplace_back(policy, options);
    return grid;
}

double
GridTiming::serialSeconds() const
{
    double sum = 0.0;
    for (const auto &row : runSeconds)
        for (const double s : row)
            sum += s;
    return sum;
}

double
GridTiming::runsPerSecond() const
{
    return totalSeconds > 0.0
               ? static_cast<double>(runCount()) / totalSeconds
               : 0.0;
}

std::size_t
GridTiming::runCount() const
{
    std::size_t count = 0;
    for (const auto &row : runSeconds)
        count += row.size();
    return count;
}

double
GridTiming::warmupSeconds() const
{
    double sum = 0.0;
    for (const auto &row : phaseSeconds)
        for (const CellPhases &cell : row)
            sum += cell.warmupSeconds;
    return sum;
}

double
GridTiming::measureSeconds() const
{
    double sum = 0.0;
    for (const auto &row : phaseSeconds)
        for (const CellPhases &cell : row)
            sum += cell.measureSeconds;
    return sum;
}

double
GridTiming::statExportSeconds() const
{
    double sum = 0.0;
    for (const auto &row : phaseSeconds)
        for (const CellPhases &cell : row)
            sum += cell.statExportSeconds;
    return sum;
}

stats::BoundedHistogram
GridTiming::cellWallHistogram() const
{
    // 32 log2 buckets of microseconds: the last bound is 2^30 µs
    // (~18 min), far beyond any realistic cell.
    stats::BoundedHistogram histogram(
        stats::BoundedHistogram::log2Bounds(32));
    for (const auto &row : runSeconds)
        for (const double seconds : row)
            histogram.sample(
                static_cast<std::uint64_t>(seconds * 1e6));
    return histogram;
}

GridResults::GridResults(std::size_t workloads, std::size_t runs)
    : cells_(workloads, std::vector<Metrics>(runs)),
      execution_(workloads,
                 std::vector<CellExecution>(
                     runs, CellExecution::Sequential)),
      registries_(workloads, std::vector<stats::Registry>(runs))
{
    timing_.runSeconds.assign(workloads,
                              std::vector<double>(runs, 0.0));
    timing_.phaseSeconds.assign(
        workloads, std::vector<GridTiming::CellPhases>(runs));
}

bool
GridResults::anyFused() const
{
    for (const auto &row : execution_)
        for (const CellExecution execution : row)
            if (execution != CellExecution::Sequential &&
                execution != CellExecution::Cached)
                return true;
    return false;
}

std::uint64_t
GridResults::totalInstructions() const
{
    std::uint64_t sum = 0;
    for (const auto &row : cells_)
        for (const Metrics &metrics : row)
            sum += metrics.instructions;
    return sum;
}

double
GridResults::instructionsPerSecond() const
{
    return timing_.totalSeconds > 0.0
               ? static_cast<double>(totalInstructions()) /
                     timing_.totalSeconds
               : 0.0;
}

stats::Table
GridResults::timingTable(
    const std::vector<GridWorkload> &workloads) const
{
    stats::Table table({"workload", "runs", "seconds"});
    for (std::size_t w = 0; w < timing_.runSeconds.size(); ++w) {
        double row_seconds = 0.0;
        for (const double s : timing_.runSeconds[w])
            row_seconds += s;
        table.addRow({w < workloads.size() ? workloads[w].name
                                           : std::to_string(w),
                      std::to_string(timing_.runSeconds[w].size()),
                      formatDouble(row_seconds, 2)});
    }
    table.addRow({"all (serial cell sum)",
                  std::to_string(timing_.runCount()),
                  formatDouble(timing_.serialSeconds(), 2)});
    table.addRow({"all (wall clock)",
                  std::to_string(timing_.runCount()),
                  formatDouble(timing_.totalSeconds, 2)});
    table.addRow({"throughput (runs/sec)", "-",
                  formatDouble(timing_.runsPerSecond(), 2)});
    table.addRow({"throughput (Minst/s)", "-",
                  formatDouble(instructionsPerSecond() / 1e6, 2)});
    table.addRow({"parallel speedup", "-",
                  formatDouble(timing_.totalSeconds > 0.0
                                   ? timing_.serialSeconds() /
                                         timing_.totalSeconds
                                   : 0.0,
                               2)});
    table.addRow({"phase: replay build (serial s)", "-",
                  formatDouble(timing_.replayBuildSeconds, 2)});
    table.addRow({"phase: warmup (serial s)", "-",
                  formatDouble(timing_.warmupSeconds(), 2)});
    table.addRow({"phase: measure (serial s)", "-",
                  formatDouble(timing_.measureSeconds(), 2)});
    table.addRow({"phase: stat export (serial s)", "-",
                  formatDouble(timing_.statExportSeconds(), 2)});
    return table;
}

GridResults
runGrid(const PolicyGrid &grid, ThreadPool &pool,
        const GridOptions &options,
        const std::function<void(std::size_t w, std::size_t r)>
            &progress, stats::SpanRecorder *recorder)
{
    if (grid.workloads.empty() || grid.runs.empty())
        throw std::invalid_argument("runGrid: empty grid");

    // Fused scheduling applies when every run of a row can share one
    // machine; with heterogeneous run knobs the whole grid falls back
    // to one-lane passes (simplest correct rule — mixed grids are the
    // ablation harnesses, which are not throughput-bound).
    bool fusable = options.fused;
    for (std::size_t r = 1; fusable && r < grid.runs.size(); ++r)
        fusable = sameRunKnobs(grid.runs.front().options,
                               grid.runs[r].options);
    // Runs per pass: a fused pass takes up to kMaxLanes consecutive
    // runs of a row, the first as its timing lane and the rest as
    // monitor lanes; otherwise every cell is its own one-lane pass.
    const std::size_t width =
        fusable ? cache::PolicyLaneBank::kMaxLanes : 1;

    // A disabled recorder behaves exactly like no recorder: all the
    // instrumentation below keys off this one pointer.
    if (recorder && !recorder->enabled())
        recorder = nullptr;
    // Worker tracks are labelled lazily, from the worker itself, so
    // only threads that actually ran grid work appear in the trace.
    const auto label_track = [recorder]() {
        if (!recorder)
            return;
        const int worker = ThreadPool::currentWorkerIndex();
        recorder->labelThread(
            worker >= 0 ? "worker-" + std::to_string(worker)
                        : "caller");
    };

    const auto wall_start = std::chrono::steady_clock::now();

    // Parse every policy once per grid; the specs are shared
    // read-only by all workers.
    std::vector<replacement::PolicySpec> l2_specs;
    std::vector<replacement::PolicySpec> l1i_specs;
    l2_specs.reserve(grid.runs.size());
    l1i_specs.reserve(grid.runs.size());
    for (const RunSpec &run : grid.runs) {
        l2_specs.push_back(
            replacement::PolicySpec::parse(run.l2Policy));
        l1i_specs.push_back(
            replacement::PolicySpec::parse(run.options.l1iPolicy));
    }

    GridResults results(grid.workloads.size(), grid.runs.size());
    results.timing_.workers = pool.workerCount();
    std::mutex progress_mutex;
    // Progress-state shared by the completion counters; guarded by
    // progress_mutex like the user callback.
    std::size_t completed_cells = 0;
    std::uint64_t completed_instructions = 0;

    // Serialized completion bookkeeping shared by every pass.
    const auto note_cell_done = [&](std::size_t w, std::size_t r,
                                    std::uint64_t instructions) {
        if (!progress && !recorder)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        ++completed_cells;
        completed_instructions += instructions;
        if (recorder) {
            recorder->counter("cells_completed",
                              static_cast<double>(completed_cells));
            const double elapsed = secondsSince(wall_start);
            recorder->counter(
                "minst_per_sec",
                elapsed > 0.0 ? static_cast<double>(
                                    completed_instructions) /
                                    elapsed / 1e6
                              : 0.0);
        }
        if (progress)
            progress(w, r);
    };

    const bool collect = options.collectRegistries ||
                         options.cellCache != nullptr;

    // Cache probe: resolve every cell's content identity and serve
    // hits before the build phase, so a fully cached row skips even
    // its replay-buffer build. Roles follow the request layout, not
    // the miss set: the first column of every pass is the exact
    // timing lane and the rest are monitor lanes driven by that
    // column's policy.
    std::vector<std::vector<std::string>> cache_keys;
    std::vector<std::vector<std::string>> cache_canonicals;
    std::vector<std::vector<char>> cache_hits;
    std::vector<char> row_fully_cached(grid.workloads.size(), 0);
    if (options.cellCache) {
        const std::string &sha = buildInfo().gitSha;
        cache_keys.assign(grid.workloads.size(),
                          std::vector<std::string>(grid.runs.size()));
        cache_canonicals = cache_keys;
        cache_hits.assign(grid.workloads.size(),
                          std::vector<char>(grid.runs.size(), 0));
        for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
            bool all_hit = true;
            for (std::size_t r = 0; r < grid.runs.size(); ++r) {
                const bool monitor = r % width != 0;
                cache_canonicals[w][r] = cellCacheCanonical(
                    grid.workloads[w], grid.runs[r],
                    monitor ? grid.runs[r - r % width].l2Policy
                            : std::string(),
                    options.sampledSets, sha);
                cache_keys[w][r] =
                    cellCacheKey(cache_canonicals[w][r]);
                CellCacheEntry entry;
                if (!options.cellCache->lookup(
                        cache_keys[w][r], cache_canonicals[w][r],
                        entry)) {
                    all_hit = false;
                    continue;
                }
                // The display name sits outside the identity, so
                // restamp it; every other field (footprint included)
                // comes back as simulated.
                entry.metrics.benchmark = grid.workloads[w].name;
                results.cells_[w][r] = std::move(entry.metrics);
                results.execution_[w][r] = CellExecution::Cached;
                if (collect)
                    results.registries_[w][r] =
                        registryFromJson(entry.counters);
                cache_hits[w][r] = 1;
                note_cell_done(w, r,
                               results.cells_[w][r].instructions);
            }
            row_fully_cached[w] = all_hit ? 1 : 0;
        }
    }
    const auto cell_cached = [&](std::size_t w, std::size_t r) {
        return options.cellCache != nullptr && cache_hits[w][r] != 0;
    };

    // One immutable program per workload, generated in parallel and
    // then shared by every policy run of that workload. Within the
    // replay budget, the workload's committed stream is also packed
    // once into a RecordBuffer so every policy cell replays it
    // instead of re-running the synthetic executor; workloads past
    // the budget fall back to live generation per cell, and a cursor
    // that outruns its buffer continues from the buffer's tail
    // executor snapshot. Either way the Metrics are bit-identical
    // (tests/test_replay.cpp).
    const std::uint64_t budget_bytes =
        envU64("EMISSARY_REPLAY_BUDGET_MB", 1024) * 1024 * 1024;
    const std::uint64_t records = recordsNeeded(grid);
    const std::uint64_t bytes_per_buffer =
        records * trace::RecordBuffer::kBytesPerRecord;
    std::uint64_t replayable = 0;
    if (bytes_per_buffer > 0)
        replayable = std::min<std::uint64_t>(
            grid.workloads.size(), budget_bytes / bytes_per_buffer);

    std::vector<std::unique_ptr<trace::SyntheticProgram>> programs(
        grid.workloads.size());
    std::vector<std::shared_ptr<const trace::RecordBuffer>> buffers(
        grid.workloads.size());
    std::vector<double> build_seconds(grid.workloads.size(), 0.0);
    {
        std::vector<std::future<void>> built;
        built.reserve(grid.workloads.size());
        for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
            // A fully cached row never simulates, so it does not
            // need its program or replay buffer either — the warm
            // path costs identity probes only.
            if (row_fully_cached[w])
                continue;
            const bool replay = w < replayable;
            built.push_back(pool.submit([&grid, &programs, &buffers,
                                         &build_seconds, &label_track,
                                         &pool, recorder, records,
                                         replay, w]() {
                const auto build_start =
                    std::chrono::steady_clock::now();
                label_track();
                stats::ScopedTimer span(recorder, "replay_build");
                span.arg("workload",
                         stats::JsonValue(grid.workloads[w].name));
                const BuildDone done{build_seconds[w], build_start};
                const GridWorkload &row = grid.workloads[w];
                if (row.traceBacked()) {
                    // The buffer unrolls the trace's wrap-around, so
                    // any window length replays correctly; a cursor
                    // that still overruns re-opens the file at the
                    // overrun position via the tail factory. EMTC
                    // containers decode their blocks in parallel
                    // across the same pool (this job helps), bit-
                    // identically to a serial streaming build.
                    if (replay)
                        buffers[w] =
                            buildTraceReplay(row, records, pool);
                    return;
                }
                programs[w] =
                    std::make_unique<trace::SyntheticProgram>(
                        row.profile);
                if (replay)
                    buffers[w] = std::make_shared<
                        const trace::RecordBuffer>(*programs[w],
                                                   records);
            }));
        }
        for (auto &future : built)
            future.get();
    }

    for (const double s : build_seconds)
        results.timing_.replayBuildSeconds += s;

    // The row-source choice, made once for every pass: replay the
    // row's buffer; past the replay budget, stream a trace file fresh
    // (the decode is bit-exact, so the Metrics match the buffered
    // path) or run the synthetic program live.
    const auto open_row =
        [&](std::size_t w) -> std::unique_ptr<trace::TraceSource> {
        if (buffers[w])
            return std::make_unique<trace::ReplayCursor>(buffers[w]);
        if (grid.workloads[w].traceBacked())
            return openTraceSource(grid.workloads[w]);
        return std::make_unique<trace::SyntheticExecutor>(*programs[w]);
    };

    // One pass per (workload, run chunk) with any cell left to
    // produce; cache hits already sit in their result slots.
    std::vector<std::future<void>> passes;
    passes.reserve(grid.cellCount());
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        for (std::size_t base = 0; base < grid.runs.size();
             base += width) {
            const std::size_t count =
                std::min(width, grid.runs.size() - base);
            std::vector<std::size_t> fresh;
            fresh.reserve(count);
            for (std::size_t lane = 0; lane < count; ++lane)
                if (!cell_cached(w, base + lane))
                    fresh.push_back(lane);
            if (fresh.empty())
                continue;
            passes.push_back(pool.submit([&, w, base, fresh]() {
                const auto pass_start = std::chrono::steady_clock::now();
                label_track();
                // Each pass owns its source, simulator and seeded
                // RNGs; it writes only its own cells' result slots, so
                // no locking — and completion order cannot reorder or
                // perturb the results.
                const GridWorkload &row = grid.workloads[w];
                stats::ScopedTimer span(recorder,
                                        fusable ? "group" : "cell");
                // The chunk's designated timing policy always drives
                // the pass, even when its own cell was a cache hit:
                // monitor results depend on the timing lane's policy
                // through the shared pipeline, and the cache keyed
                // them under this driver. A cached lane-0 result is
                // recomputed and discarded, never served wrong.
                RunPlan plan;
                plan.l2Specs.reserve(fresh.size() + 1);
                plan.l2Specs.push_back(l2_specs[base]);
                for (const std::size_t lane : fresh)
                    if (lane != 0)
                        plan.l2Specs.push_back(l2_specs[base + lane]);
                plan.l1iSpec = l1i_specs[base];
                plan.options = grid.runs[base].options;
                plan.options.sampledSets = options.sampledSets;
                RunObservers observers;
                observers.spans = recorder;
                std::vector<Metrics> metrics =
                    execute(*open_row(w), plan, &observers);
                const double pass_seconds = secondsSince(pass_start);

                // One pass produced every fresh cell: wall and phase
                // time split evenly over them so row and phase totals
                // still sum to real wall clock.
                const double denom = static_cast<double>(fresh.size());
                const double share = pass_seconds / denom;
                const GridTiming::CellPhases phase_share = {
                    observers.warmupSeconds / denom,
                    observers.measureSeconds / denom,
                    observers.statExportSeconds / denom};
                std::uint64_t pass_instructions = 0;
                std::size_t next_monitor = 1;
                for (const std::size_t lane : fresh) {
                    const std::size_t r = base + lane;
                    const std::size_t slot =
                        lane == 0 ? 0 : next_monitor++;
                    Metrics &m = metrics[slot];
                    // The grid row's name wins over the source's
                    // self-description.
                    m.benchmark = row.name;
                    pass_instructions += m.instructions;
                    if (collect) {
                        stats::Registry &registry =
                            slot == 0
                                ? observers.registry
                                : observers.monitorRegistries[slot - 1];
                        if (options.cellCache) {
                            CellCacheEntry entry;
                            entry.metrics = m;
                            entry.counters = registryJson(registry);
                            options.cellCache->store(
                                cache_keys[w][r],
                                cache_canonicals[w][r], entry);
                        }
                        results.registries_[w][r] = std::move(registry);
                    }
                    results.cells_[w][r] = std::move(m);
                    results.timing_.runSeconds[w][r] = share;
                    results.timing_.phaseSeconds[w][r] = phase_share;
                    results.execution_[w][r] =
                        !fusable    ? CellExecution::Sequential
                        : lane == 0 ? CellExecution::FusedTiming
                        : options.sampledSets > 1
                            ? CellExecution::FusedMonitorSampled
                            : CellExecution::FusedMonitor;
                }
                if (span.active()) {
                    span.arg("workload", stats::JsonValue(row.name));
                    span.arg("policy",
                             stats::JsonValue(grid.runs[base].l2Policy));
                    // Grid-cell index of the pass's first cell:
                    // policy labels repeat across rows (and group
                    // slices cover several cells), so slices stay
                    // distinguishable.
                    span.arg("cell",
                             stats::JsonValue(static_cast<std::uint64_t>(
                                 w * grid.runs.size() + base)));
                    if (fusable)
                        span.arg("lanes",
                                 stats::JsonValue(
                                     static_cast<std::uint64_t>(
                                         plan.l2Specs.size())));
                    span.arg("instructions",
                             stats::JsonValue(pass_instructions));
                    span.arg("minst_per_sec",
                             stats::JsonValue(
                                 pass_seconds > 0.0
                                     ? static_cast<double>(
                                           pass_instructions) /
                                           pass_seconds / 1e6
                                     : 0.0));
                }
                for (const std::size_t lane : fresh)
                    note_cell_done(
                        w, base + lane,
                        results.cells_[w][base + lane].instructions);
            }));
        }
    }

    // Wait for every pass; report the first failure only after the
    // stragglers finish (their slots reference local state).
    std::exception_ptr first_error;
    for (auto &future : passes) {
        try {
            future.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);

    results.timing_.totalSeconds = secondsSince(wall_start);
    return results;
}

stats::JsonValue
sweepJson(const PolicyGrid &grid, const GridResults &results)
{
    using stats::JsonValue;

    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue("emissary.sweep.v1"));
    doc.set("workloads",
            JsonValue(static_cast<std::uint64_t>(
                grid.workloads.size())));
    doc.set("policies", JsonValue(static_cast<std::uint64_t>(
                            grid.runs.size())));
    doc.set("mode", JsonValue(results.anyFused() ? "fused"
                                                 : "sequential"));

    JsonValue runs = JsonValue::array();
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const GridWorkload &row = grid.workloads[w];

        // Workload provenance, shared by every run of this row.
        JsonValue provenance = JsonValue::object();
        if (row.traceBacked()) {
            provenance.set("type", JsonValue("trace"));
            provenance.set("path", JsonValue(row.tracePath));
            provenance.set("skip_records",
                           JsonValue(row.skipRecords));
            provenance.set("max_records", JsonValue(row.maxRecords));
            const auto info = readTraceInfo(row.tracePath);
            provenance.set("records", JsonValue(info.recordCount));
            provenance.set("unique_code_lines",
                           JsonValue(info.uniqueCodeLines));
            provenance.set("file_bytes", JsonValue(info.fileBytes));
            provenance.set("compression_ratio",
                           JsonValue(info.compressionRatio()));
        } else {
            provenance.set("type", JsonValue("synthetic"));
            provenance.set("profile", JsonValue(row.profile.name));
        }

        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            const RunSpec &spec = grid.runs[r];
            const RunOptions &opts = spec.options;

            JsonValue manifest = JsonValue::object();
            manifest.set("benchmark",
                         JsonValue(grid.workloads[w].name));
            manifest.set("workload", provenance);
            manifest.set("policy", JsonValue(spec.l2Policy));
            manifest.set("label", JsonValue(spec.label));
            manifest.set("seed", JsonValue(opts.seed));
            manifest.set("config", runOptionsJson(opts));

            manifest.set("execution",
                         JsonValue(cellExecutionName(
                             results.executionAt(w, r))));
            manifest.set("wall_seconds",
                         JsonValue(results.timing().runSeconds[w][r]));
            manifest.set("metrics", results.at(w, r).toJson());
            runs.push(std::move(manifest));
        }
    }
    doc.set("runs", std::move(runs));

    JsonValue timing = JsonValue::object();
    timing.set("total_seconds",
               JsonValue(results.timing().totalSeconds));
    timing.set("serial_seconds",
               JsonValue(results.timing().serialSeconds()));
    timing.set("runs_per_second",
               JsonValue(results.timing().runsPerSecond()));
    timing.set("instructions", JsonValue(results.totalInstructions()));
    timing.set("instructions_per_second",
               JsonValue(results.instructionsPerSecond()));
    timing.set("workers",
               JsonValue(static_cast<std::uint64_t>(
                   results.timing().workers)));

    JsonValue phases = JsonValue::object();
    phases.set("replay_build_seconds",
               JsonValue(results.timing().replayBuildSeconds));
    phases.set("warmup_seconds",
               JsonValue(results.timing().warmupSeconds()));
    phases.set("measure_seconds",
               JsonValue(results.timing().measureSeconds()));
    phases.set("stat_export_seconds",
               JsonValue(results.timing().statExportSeconds()));
    timing.set("phases", std::move(phases));

    JsonValue histogram = results.timing().cellWallHistogram().toJson();
    histogram.set("unit", JsonValue("microseconds"));
    timing.set("cell_wall_histogram", std::move(histogram));
    doc.set("timing", std::move(timing));

    doc.set("provenance", buildProvenanceJson());
    return doc;
}

void
writeSweepJson(const std::string &path, const PolicyGrid &grid,
               const GridResults &results)
{
    stats::writeJsonFile(path, sweepJson(grid, results));
}

} // namespace emissary::core
