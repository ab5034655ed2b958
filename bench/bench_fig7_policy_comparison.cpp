/**
 * @file
 * Figure 7: speedup and energy reduction of the full Table 3 policy
 * set relative to the TPLRU + FDIP baseline, per benchmark and
 * geomean. The paper's headline numbers live here (P(8):S&E&R(1/32):
 * +2.49% geomean speedup in Fig. 7, up to 11.67% on verilator).
 *
 * A scale note printed with the results: at laptop windows the
 * R(1/32) filter accumulates protection ~50x slower than in the
 * paper's 100M-instruction windows, so the harness also reports the
 * window-equivalent filter P(8):S&E&R(1/4) (see EXPERIMENTS.md).
 */

#include <map>

#include "bench/bench_common.hh"
#include "trace/program.hh"

int
main()
{
    using namespace emissary;
    const auto options = bench::defaultOptions(1'500'000);
    bench::banner("Figure 7 - policy comparison",
                  "Fig. 7 (speedup + energy vs TPLRU + FDIP)",
                  options);

    std::vector<std::string> policies =
        replacement::figure7PolicyNames();
    policies.push_back("P(8):S&E&R(1/4)");  // window-scaled filter

    std::vector<std::string> headers = {"benchmark"};
    for (const auto &p : policies)
        headers.push_back(p);

    stats::Table speed_table(headers);
    stats::Table energy_table(headers);
    std::map<std::string, std::vector<double>> speedups;
    std::map<std::string, std::vector<double>> energies;

    // Column 0 is the baseline every speedup compares to.
    std::vector<std::string> grid_policies = {"TPLRU"};
    grid_policies.insert(grid_policies.end(), policies.begin(),
                         policies.end());
    const auto workloads = core::selectedBenchmarks();
    const core::PolicyGrid grid =
        core::PolicyGrid::sweep(workloads, grid_policies, options);
    core::ThreadPool pool;
    const core::GridResults results = bench::runGridRecorded(
        "fig7", grid, pool, bench::WorkloadProgress(grid));

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const core::Metrics &base = results.at(w, 0);
        std::vector<std::string> srow = {workloads[w].name};
        std::vector<std::string> erow = {workloads[w].name};
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const core::Metrics &m = results.at(w, p + 1);
            const double s = core::speedupPercent(base, m);
            const double e = core::energyReductionPercent(base, m);
            speedups[policies[p]].push_back(s);
            energies[policies[p]].push_back(e);
            srow.push_back(formatDouble(s, 2));
            erow.push_back(formatDouble(e, 2));
        }
        speed_table.addRow(srow);
        energy_table.addRow(erow);
    }

    std::vector<std::string> sgeo = {"geomean"};
    std::vector<std::string> egeo = {"geomean"};
    for (const auto &policy : policies) {
        sgeo.push_back(formatDouble(
            core::geomeanSpeedupPercent(speedups[policy]), 2));
        egeo.push_back(formatDouble(mean(energies[policy]), 2));
    }
    speed_table.addRow(sgeo);
    energy_table.addRow(egeo);

    std::printf("\nSpeedup (%%) vs TPLRU + FDIP baseline:\n%s\n",
                speed_table.render().c_str());
    std::printf("Energy reduction (%%) vs TPLRU + FDIP baseline:\n%s\n",
                energy_table.render().c_str());
    bench::reportSweepTiming(results, grid.workloads);
    bench::writeSweepArtifact("fig7_policy_comparison", grid, results);
    std::printf(
        "paper shape: EMISSARY P(8) variants lead; M:0 and the\n"
        "insertion-only M: policies trail or lose; the comparators\n"
        "(SRRIP/BRRIP/DRRIP/PDP/DCLIP) underperform EMISSARY; energy\n"
        "savings track speedups. Paper geomeans: P(8):S&E&R(1/32)\n"
        "+2.49%% speedup / 2.12%% energy; DCLIP -2.48%%, DRRIP -2.9%%,\n"
        "PDP -3.36%%.\n");
    return 0;
}
