/**
 * @file
 * perfbench: the repository benchmark. One run sweeps one workload
 * through core::runGrid for a fixed wall time, checks every cell, and
 * prints one JSON result line on stdout (progress goes to stderr).
 *
 *   perfbench --workload exact_fe|exact_be|fused_trace --seed N
 *             --seconds S --trace 0|1 --inputs DIR
 *
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones from a separate traced run. DIR holds generated EMTC inputs.
 * See perfbench/README.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "bench.hh"

namespace
{

using namespace perfbench;

/** The benchmark's seed when --seed is not given. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Workers of the sweep pool: at most this many, at most nproc. */
constexpr unsigned kMaxWorkers = 4;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string inputs = ".bench_build/inputs";
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--inputs DIR]\n",
                 problem.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs an unsigned integer, got '" + text + "'");
    try {
        return std::stoull(text);
    } catch (const std::exception &) {
        usage(flag + " is out of range: '" + text + "'");
    }
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = parseUnsigned(flag, value);
        else if (flag == "--seconds")
            args.seconds =
                static_cast<double>(parseUnsigned(flag, value));
        else if (flag == "--trace")
            args.trace = parseUnsigned(flag, value) != 0;
        else if (flag == "--inputs")
            args.inputs = value;
        else
            usage("unknown flag " + flag);
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

/** The result line. A value that is not finite is reported as 0 and
 *  fails the run. */
void
printResult(std::vector<Metric> metrics, Tally &tally)
{
    for (Metric &m : metrics)
        if (!std::isfinite(m.value)) {
            note("metric " + m.name + " is not finite");
            m.value = 0.0;
            tally.cell(false);
        }
    const bool correct = tally.failed == 0 && tally.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // Keep every block of 1 MiB or more (replay buffers, lane arrays)
    // on its own mapping, returned to the system when freed. glibc's
    // adaptive threshold would otherwise move them into the heap after
    // the first free, and peak RSS would depend on thread timing.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    try {
        const Workload workload =
            makeWorkload(args.workload, args.seed, args.inputs);
        const unsigned workers = std::clamp(
            std::thread::hardware_concurrency(), 1U, kMaxWorkers);
        ThreadPool pool(workers);
        note(workload.name + ": " +
             std::to_string(workload.grid().cellCount()) + " cells, " +
             std::to_string(workers) + " workers, seed " +
             std::to_string(args.seed));

        // The traced run reports no fidelity metric: it checks only
        // its own program's fused/exact agreement.
        std::vector<Workload> others;
        for (const std::uint64_t seed :
             fidelitySeeds(args.workload, args.seed))
            if (seed != args.seed && !args.trace)
                others.push_back(
                    makeWorkload(args.workload, seed, args.inputs));

        Tally tally;
        const SweepOutcome sweep =
            runSweeps(workload, others, pool, args.seconds, tally);
        std::string reps;
        for (const double v : sweep.minstPerSecond) {
            reps += ' ';
            reps += std::to_string(v);
        }
        note("timed sweeps, Minst/s each:" + reps);

        std::vector<Metric> metrics;
        if (args.trace) {
            metrics = runTraced(workload, sweep, pool, args.inputs,
                                tally);
        } else {
            const std::vector<double> &errors = sweep.speedupErrorsPp;
            const std::vector<double> &policies = sweep.policyErrorsPp;
            double error_sum = 0.0;
            for (const double e : errors)
                error_sum += e;
            metrics = {
                {"minst_per_s", median(sweep.minstPerSecond), "Minst/s"},
                {"minst_per_cpu_s", median(sweep.minstPerCpuSecond),
                 "Minst/s"},
                {"setup_s", median(sweep.setupSeconds), "s"},
                {"peak_rss_mb", peakRssMb(), "MB"},
                {"speedup_err_pp_max",
                 policies.empty() ? 0.0
                                  : *std::max_element(policies.begin(),
                                                      policies.end()),
                 "pp"},
                {"speedup_err_pp_mean",
                 errors.empty()
                     ? 0.0
                     : error_sum / static_cast<double>(errors.size()),
                 "pp"},
            };
        }
        printResult(std::move(metrics), tally);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
