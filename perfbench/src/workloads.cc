#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include <sys/resource.h>

#include "bench.hh"
#include "core/replay_build.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "workload/emtc.hh"

namespace perfbench
{

namespace
{

/** Window of every cell: short enough that a run repeats the whole
 *  sweep several times, long enough that caches are warm. */
constexpr std::uint64_t kWarmupInstructions = 250'000;
constexpr std::uint64_t kMeasureInstructions = 750'000;

/** Backend width of the modelled core: commit may overshoot the
 *  window by less than one commit group. */
constexpr std::uint64_t kCommitWidth = 8;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** @p base re-keyed by the benchmark seed. */
std::uint64_t
derive(std::uint64_t base, std::uint64_t seed)
{
    return splitmix64(base ^ splitmix64(seed));
}

/** The suite profile @p name with its program seed derived from
 *  @p seed. */
emissary::trace::WorkloadProfile
seededProfile(const std::string &name, std::uint64_t seed)
{
    emissary::trace::WorkloadProfile profile =
        emissary::trace::profileByName(name);
    profile.seed = derive(profile.seed, seed);
    return profile;
}

const std::vector<std::string> kExactPolicies = {
    "TPLRU", "P(8):S&E", "P(8):S&E&R(1/32)", "P(2):S&E", "M:S&E",
    "DRRIP"};

/** The 13 policies of the paper's Fig. 5 sweep, baseline first. */
const std::vector<std::string> kFig5Policies = {
    "TPLRU",         "M:0",           "M:R(1/32)",
    "M:S&E",         "M:S&E&R(1/32)", "P(2):S&E",
    "P(2):S&E&R(1/32)", "P(6):S&E",   "P(6):S&E&R(1/32)",
    "P(10):S&E",     "P(10):S&E&R(1/32)", "P(14):S&E",
    "P(14):S&E&R(1/32)"};

bool
sameDouble(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

} // namespace

PolicyGrid
Workload::grid() const
{
    return PolicyGrid::sweep(rows, policies, options);
}

std::uint64_t
Workload::records() const
{
    return emissary::trace::RecordBuffer::recordsForWindow(
        options.warmupInstructions + options.measureInstructions);
}

std::string
packedTrace(const emissary::trace::WorkloadProfile &row,
            std::uint64_t records, const std::string &inputs_dir)
{
    namespace fs = std::filesystem;
    char stem[160];
    std::snprintf(stem, sizeof stem, "%s-%016llx-%llu.emtc",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.seed),
                  static_cast<unsigned long long>(records));
    const fs::path path = fs::path(inputs_dir) / stem;
    if (fs::exists(path)) {
        try {
            if (emissary::workload::readTraceInfo(path.string())
                    .recordCount == records)
                return path.string();
        } catch (const std::exception &) {
            // A damaged leftover: pack it again below.
        }
    }
    fs::create_directories(inputs_dir);
    const fs::path partial = path.string() + ".partial";
    {
        const emissary::trace::SyntheticProgram program(row);
        emissary::trace::SyntheticExecutor executor(program);
        emissary::workload::PackedTraceWriter writer(partial.string(),
                                                     row.name);
        std::vector<emissary::trace::TraceRecord> batch(4096);
        for (std::uint64_t done = 0; done < records;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(batch.size(), records - done));
            executor.fill(batch.data(), n);
            writer.append(batch.data(), n);
            done += n;
        }
        writer.finish();
    }
    fs::rename(partial, path);
    return path.string();
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &inputs_dir)
{
    Workload workload;
    workload.name = name;
    workload.options.warmupInstructions = kWarmupInstructions;
    workload.options.measureInstructions = kMeasureInstructions;
    workload.options.seed = derive(workload.options.seed, seed);

    auto synthetic = [&](const std::vector<std::string> &names) {
        for (const std::string &row : names)
            workload.rows.emplace_back(seededProfile(row, seed));
    };
    if (name == "exact_fe") {
        synthetic({"tomcat", "verilator", "finagle-http",
                   "data-serving"});
        workload.policies = kExactPolicies;
        workload.tracedCells = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    } else if (name == "exact_be") {
        synthetic({"xapian", "tpcc", "media-stream", "kafka"});
        workload.policies = kExactPolicies;
        workload.tracedCells = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    } else if (name == "fused_trace") {
        for (const char *row : {"verilator", "tomcat", "xapian"}) {
            const std::string path = packedTrace(
                seededProfile(row, seed), workload.records(),
                inputs_dir);
            workload.rows.emplace_back(row, path);
        }
        workload.policies = kFig5Policies;
        workload.fused = true;
        workload.tracedCells = {{0, 0}, {1, 0}, {2, 0}};
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return workload;
}

std::vector<std::uint64_t>
fidelitySeeds(const std::string &workload, std::uint64_t seed)
{
    // One program's errors swing with its seed, most on the exact
    // workloads' 20 monitor cells; pooling programs narrows the
    // run-to-run spread. fused_trace has 36 monitor cells and a
    // costlier oracle, so it pools fewer.
    const std::uint64_t programs = workload == "fused_trace" ? 3 : 6;
    std::vector<std::uint64_t> seeds = {seed};
    for (std::uint64_t p = 1; p < programs; ++p)
        seeds.push_back(derive(seed, p));
    return seeds;
}

RowInput
buildRowInput(const GridWorkload &row, std::uint64_t records,
              ThreadPool &pool, double *build_seconds)
{
    RowInput input;
    double start = 0.0;
    if (row.traceBacked()) {
        // The engine's EMTC open: header, name and index tail.
        emissary::workload::readTraceInfo(row.tracePath);
        start = nowSeconds();
        input.buffer =
            emissary::core::buildTraceReplay(row, records, pool);
    } else {
        input.program =
            std::make_unique<emissary::trace::SyntheticProgram>(
                row.profile);
        start = nowSeconds();
        input.buffer =
            std::make_shared<const emissary::trace::RecordBuffer>(
                *input.program, records);
    }
    if (build_seconds)
        *build_seconds = nowSeconds() - start;
    return input;
}

std::uint64_t
rowFootprint(const GridWorkload &row)
{
    if (!row.traceBacked() ||
        !emissary::core::isPackedTracePath(row.tracePath))
        return 0;
    return emissary::workload::readTraceInfo(row.tracePath)
        .uniqueCodeLines;
}

bool
sameMetrics(const Metrics &a, const Metrics &b)
{
    if (a.priorityDistribution.size() != b.priorityDistribution.size())
        return false;
    for (std::size_t i = 0; i < a.priorityDistribution.size(); ++i)
        if (!sameDouble(a.priorityDistribution[i],
                        b.priorityDistribution[i]))
            return false;
    return a.benchmark == b.benchmark && a.policy == b.policy &&
           a.instructions == b.instructions && a.cycles == b.cycles &&
           sameDouble(a.ipc, b.ipc) &&
           sameDouble(a.l1iMpki, b.l1iMpki) &&
           sameDouble(a.l1dMpki, b.l1dMpki) &&
           sameDouble(a.l2InstMpki, b.l2InstMpki) &&
           sameDouble(a.l2DataMpki, b.l2DataMpki) &&
           sameDouble(a.l3Mpki, b.l3Mpki) &&
           a.starvationCycles == b.starvationCycles &&
           a.starvationIqEmptyCycles == b.starvationIqEmptyCycles &&
           a.feStallCycles == b.feStallCycles &&
           a.beStallCycles == b.beStallCycles &&
           a.totalStallCycles == b.totalStallCycles &&
           sameDouble(a.decodeRate, b.decodeRate) &&
           sameDouble(a.issueRate, b.issueRate) &&
           sameDouble(a.condMispredictsPerKi, b.condMispredictsPerKi) &&
           sameDouble(a.btbMissesPerKi, b.btbMissesPerKi) &&
           sameDouble(a.energy.coreDynamicJ, b.energy.coreDynamicJ) &&
           sameDouble(a.energy.cacheDynamicJ, b.energy.cacheDynamicJ) &&
           sameDouble(a.energy.dramJ, b.energy.dramJ) &&
           sameDouble(a.energy.leakageJ, b.energy.leakageJ) &&
           a.highPriorityFills == b.highPriorityFills &&
           a.priorityUpgrades == b.priorityUpgrades &&
           a.codeFootprintLines == b.codeFootprintLines;
}

bool
saneCell(const Metrics &m, const Workload &workload, std::size_t row)
{
    const std::uint64_t window = workload.options.measureInstructions;
    return m.benchmark == workload.rows[row].name &&
           !m.policy.empty() && m.instructions >= window &&
           m.instructions < window + kCommitWidth && m.cycles > 0 &&
           std::isfinite(m.ipc) && m.ipc > 0.0 &&
           m.ipc <= static_cast<double>(kCommitWidth) &&
           std::isfinite(m.l2InstMpki) && m.l2InstMpki >= 0.0 &&
           std::isfinite(m.energy.total());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : (values[mid - 1] + values[mid]) / 2.0;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
note(const std::string &line)
{
    std::fprintf(stderr, "perfbench: %s\n", line.c_str());
}

} // namespace perfbench
