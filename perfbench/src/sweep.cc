#include <cmath>
#include <exception>
#include <string>

#include "bench.hh"

namespace perfbench
{

namespace
{

using emissary::core::CellExecution;
using emissary::core::GridOptions;

/** Set-up is measured at least this many times and for at least
 *  this long per run; the median is kept. */
constexpr std::size_t kSetupRepeats = 9;
constexpr double kSetupSeconds = 2.0;

/** How runGrid must have produced cell (row, @p run) when the grid
 *  runs fused or not. */
CellExecution
expectedExecution(bool fused, std::size_t run)
{
    if (!fused)
        return CellExecution::Sequential;
    return run == 0 ? CellExecution::FusedTiming
                    : CellExecution::FusedMonitor;
}

/** runGrid of @p workload's grid, or nullptr after counting every cell
 *  failed when a cell threw (cycle-budget overrun, bad notation). */
std::unique_ptr<GridResults>
sweepOnce(const Workload &workload, ThreadPool &pool, bool fused,
          Tally &tally)
{
    GridOptions options;
    options.fused = fused;
    const PolicyGrid grid = workload.grid();
    try {
        return std::make_unique<GridResults>(
            emissary::core::runGrid(grid, pool, options));
    } catch (const std::exception &e) {
        note(std::string("sweep failed: ") + e.what());
        for (std::size_t c = 0; c < grid.cellCount(); ++c)
            tally.cell(false);
        return nullptr;
    }
}

/** Plausibility and provenance of every cell of @p results. */
bool
checkCell(const GridResults &results, const Workload &workload,
          bool fused, std::size_t w, std::size_t r)
{
    return saneCell(results.at(w, r), workload, w) &&
           results.executionAt(w, r) == expectedExecution(fused, r);
}

} // namespace

SweepOutcome
runSweeps(const Workload &workload, const std::vector<Workload> &others,
          ThreadPool &pool, double seconds, Tally &tally)
{
    SweepOutcome out;
    const std::uint64_t records = workload.records();

    // Set-up: every row's input, built serially row by row on a
    // one-worker pool. EMTC decode fans out across its pool; on a
    // shared host the hand-offs and the page-fault traffic of four
    // threads made the set-up figure track the neighbours' load more
    // than the work.
    ThreadPool setup_pool(1);
    const double setup_start = nowSeconds();
    while (out.setupSeconds.size() < kSetupRepeats ||
           nowSeconds() - setup_start < kSetupSeconds) {
        double total = 0.0;
        double build = 0.0;
        for (const GridWorkload &row : workload.rows) {
            const double start = nowSeconds();
            double row_build = 0.0;
            const RowInput input =
                buildRowInput(row, records, setup_pool, &row_build);
            total += nowSeconds() - start;
            build += row_build;
        }
        out.setupSeconds.push_back(total);
        out.traceBuildSeconds.push_back(build);
    }

    // The timed sweeps. Every repeat must reproduce the first one bit
    // for bit, whatever the scheduling.
    const std::size_t rows = workload.rows.size();
    const std::size_t runs = workload.policies.size();
    const double warmup =
        static_cast<double>(workload.options.warmupInstructions);
    const double start = nowSeconds();
    do {
        const double cpu_start = processCpuSeconds();
        const double wall_start = nowSeconds();
        std::unique_ptr<GridResults> results =
            sweepOnce(workload, pool, workload.fused, tally);
        const double wall = nowSeconds() - wall_start;
        const double cpu = processCpuSeconds() - cpu_start;
        if (!results)
            break;

        double instructions = 0.0;
        for (std::size_t w = 0; w < rows; ++w) {
            for (std::size_t r = 0; r < runs; ++r) {
                const Metrics &m = results->at(w, r);
                tally.cell(checkCell(*results, workload, workload.fused,
                                     w, r) &&
                           (!out.reference ||
                            sameMetrics(m, out.reference->at(w, r))));
                instructions +=
                    warmup + static_cast<double>(m.instructions);
            }
        }
        out.minstPerSecond.push_back(instructions / wall / 1e6);
        out.minstPerCpuSecond.push_back(instructions / cpu / 1e6);
        out.workerBusyShare.push_back(
            cpu / (wall * static_cast<double>(pool.workerCount())));
        if (!out.reference)
            out.reference = std::move(results);
    } while (nowSeconds() - start < seconds);
    if (!out.reference)
        return out;

    // Fidelity, untimed. The exact cells are the oracle: every fused
    // timing lane must equal its oracle cell, and each monitor lane's
    // speedup over the baseline is scored against the oracle's. The
    // timed results are one side for the run's own program; the other
    // programs run both schedulings.
    std::vector<double> policy_sums(runs, 0.0);
    std::string worst;
    double worst_error = -1.0;
    auto score = [&](const Workload &program, const GridResults &fused,
                     const GridResults &exact) {
        for (std::size_t w = 0; w < rows; ++w) {
            tally.cell(sameMetrics(fused.at(w, 0), exact.at(w, 0)));
            for (std::size_t r = 1; r < runs; ++r) {
                const double estimate = emissary::core::speedupPercent(
                    fused.at(w, 0), fused.at(w, r));
                const double oracle = emissary::core::speedupPercent(
                    exact.at(w, 0), exact.at(w, r));
                const double error = std::fabs(estimate - oracle);
                out.speedupErrorsPp.push_back(error);
                policy_sums[r] += error;
                if (error > worst_error) {
                    worst_error = error;
                    worst = program.rows[w].name + " " +
                            program.policies[r] + ": fused " +
                            std::to_string(estimate) + "% vs exact " +
                            std::to_string(oracle) + "%";
                }
            }
        }
    };
    auto checked = [&](const Workload &program, bool fused)
        -> std::unique_ptr<GridResults> {
        std::unique_ptr<GridResults> results =
            sweepOnce(program, pool, fused, tally);
        if (results)
            for (std::size_t w = 0; w < rows; ++w)
                for (std::size_t r = 0; r < runs; ++r)
                    tally.cell(checkCell(*results, program, fused, w, r));
        return results;
    };

    std::size_t programs = 0;
    if (const auto other = checked(workload, !workload.fused)) {
        score(workload, workload.fused ? *out.reference : *other,
              workload.fused ? *other : *out.reference);
        ++programs;
    }
    for (const Workload &program : others) {
        const auto fused = checked(program, true);
        const auto exact = checked(program, false);
        if (fused && exact) {
            score(program, *fused, *exact);
            ++programs;
        }
    }
    for (std::size_t r = 1; r < runs && programs > 0; ++r)
        out.policyErrorsPp.push_back(
            policy_sums[r] / static_cast<double>(programs * rows));
    note("largest speedup error: " + worst);
    return out;
}

} // namespace perfbench
