/**
 * @file
 * Shared declarations of the repository benchmark: the workload
 * definitions, the cell checks, and the metric record every phase
 * reports into. See perfbench/README.md for what each workload and
 * metric is for.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/grid.hh"
#include "core/metrics.hh"
#include "core/threadpool.hh"
#include "trace/replay.hh"

namespace perfbench
{

using emissary::core::GridResults;
using emissary::core::GridWorkload;
using emissary::core::Metrics;
using emissary::core::PolicyGrid;
using emissary::core::RunOptions;
using emissary::core::ThreadPool;

/** One benchmark workload: a fixed cell list and how it is swept. */
struct Workload
{
    std::string name;
    std::vector<GridWorkload> rows;
    /** Run 0 is the TPLRU baseline every speedup is taken against. */
    std::vector<std::string> policies;
    RunOptions options;
    /** Sweep the rows as fused policy groups (GridOptions::fused). */
    bool fused = false;
    /** (row, run) cells the traced run replays. Each must be an exact
     *  cell of the timed sweep (a fused row's run 0). */
    std::vector<std::pair<std::size_t, std::size_t>> tracedCells;

    PolicyGrid grid() const;
    /** Records one row's replay buffer holds (what runGrid packs). */
    std::uint64_t records() const;
};

/**
 * The named workload at @p seed. Trace-backed rows are packed to EMTC
 * under @p inputs_dir first (reused when already there); that packing
 * is input generation and is timed by nothing.
 * @throws std::invalid_argument for an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      const std::string &inputs_dir);

/**
 * The seeds fidelity is scored over at benchmark seed @p seed: @p seed
 * itself (the timed cells) first, then seeds derived from it.
 */
std::vector<std::uint64_t> fidelitySeeds(const std::string &workload,
                                         std::uint64_t seed);

/** EMTC container of @p row's synthetic stream under @p inputs_dir,
 *  packed on first use. */
std::string packedTrace(const emissary::trace::WorkloadProfile &row,
                        std::uint64_t records,
                        const std::string &inputs_dir);

/** One row's replay input. A synthetic buffer's overrun tail runs
 *  on the program, so the program lives as long as the buffer. */
struct RowInput
{
    std::unique_ptr<emissary::trace::SyntheticProgram> program;
    std::shared_ptr<const emissary::trace::RecordBuffer> buffer;
};

/**
 * Produce one row's replay input through the public calls runGrid
 * makes: SyntheticProgram plus RecordBuffer for synthetic rows, EMTC
 * open plus buildTraceReplay for trace rows. @p build_seconds gets the
 * RecordBuffer / buildTraceReplay share.
 */
RowInput buildRowInput(const GridWorkload &row, std::uint64_t records,
                       ThreadPool &pool,
                       double *build_seconds = nullptr);

/** The code footprint runGrid stamps on @p row's cells; 0 means the
 *  replay cursor's own census applies. */
std::uint64_t rowFootprint(const GridWorkload &row);

/** Cells attempted and failed over a whole benchmark run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    cell(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** Every field of two Metrics records equal, doubles bit for bit. */
bool sameMetrics(const Metrics &a, const Metrics &b);

/** Plausibility of one finished cell of @p workload's row @p row. */
bool saneCell(const Metrics &m, const Workload &workload,
              std::size_t row);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Process CPU seconds so far (all threads). */
double processCpuSeconds();

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Steady-clock seconds since an arbitrary epoch. */
double nowSeconds();

/** Progress line on stderr. */
void note(const std::string &line);

// ---- sweep.cc ------------------------------------------------------

/** What the timed phase of one run produced. */
struct SweepOutcome
{
    /** Results of the first timed sweep (the checked reference). */
    std::unique_ptr<GridResults> reference;
    std::vector<double> minstPerSecond;
    std::vector<double> minstPerCpuSecond;
    std::vector<double> workerBusyShare;
    std::vector<double> setupSeconds;
    std::vector<double> traceBuildSeconds;
    /** Monitor-lane speedup errors against the exact oracle, pp:
     *  every (program, row, policy) estimate. */
    std::vector<double> speedupErrorsPp;
    /** Each monitor policy's error averaged over rows and programs. */
    std::vector<double> policyErrorsPp;
};

/**
 * Measure set-up several times, sweep @p workload with runGrid until
 * @p seconds have passed, then score fidelity against the exact
 * oracle (untimed) on @p workload and on each of @p others — the same
 * cells over further seeded programs. Every cell lands in @p tally.
 */
SweepOutcome runSweeps(const Workload &workload,
                       const std::vector<Workload> &others,
                       ThreadPool &pool, double seconds, Tally &tally);

// ---- traced.cc -----------------------------------------------------

/**
 * The per-layer run: replay @p workload's traced cells through an
 * instrumented mirror of Simulator::run, probe the cache layer per
 * L2 policy family, and time lanes and decode. Each traced cell is
 * checked bit for bit against @p sweep's reference results.
 */
std::vector<Metric> runTraced(const Workload &workload,
                              const SweepOutcome &sweep,
                              ThreadPool &pool,
                              const std::string &inputs_dir,
                              Tally &tally);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
