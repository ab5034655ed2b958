#include "core/experiment.hh"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "cache/lanes.hh"
#include "stats/json.hh"

#include "core/observability.hh"
#include "core/simulator.hh"
#include "stats/span_recorder.hh"
#include "trace/executor.hh"
#include "util/strutil.hh"

namespace emissary::core
{

std::vector<Metrics>
execute(trace::TraceSource &source, const RunPlan &plan,
        RunObservers *observers)
{
    if (plan.l2Specs.empty())
        throw std::invalid_argument("execute: no policy lanes");
    const RunOptions &options = plan.options;

    MachineOptions machine_options;
    machine_options.l2Spec = plan.l2Specs.front();
    machine_options.l1iSpec = plan.l1iSpec;
    machine_options.l2Policy = plan.l2Specs.front().toString();
    machine_options.l1iPolicy = plan.l1iSpec.toString();
    machine_options.emissaryTreePlru = options.emissaryTreePlru;
    machine_options.bypassLowPriorityInst =
        options.bypassLowPriorityInst;
    machine_options.fdip = options.fdip;
    machine_options.nextLinePrefetch = options.nextLinePrefetch;
    machine_options.idealL2Inst = options.idealL2Inst;
    machine_options.seed = options.seed;

    Simulator::Config sim_config;
    sim_config.machine = alderlakeConfig(machine_options);
    sim_config.warmupInstructions = options.warmupInstructions;
    sim_config.measureInstructions = options.measureInstructions;
    sim_config.priorityResetInstructions =
        options.priorityResetInstructions;
    if (observers)
        sim_config.sampleInterval = observers->sampleInterval;

    // Monitor lanes for every spec past the first. The option knob
    // alderlakeConfig applies to the timing spec must reach them the
    // same way.
    const std::size_t monitors = plan.l2Specs.size() - 1;
    std::unique_ptr<cache::PolicyLaneBank> bank;
    if (monitors > 0) {
        std::vector<replacement::PolicySpec> monitor_specs(
            plan.l2Specs.begin() + 1, plan.l2Specs.end());
        for (replacement::PolicySpec &spec : monitor_specs)
            spec.emissaryTreePlru = options.emissaryTreePlru;
        bank = std::make_unique<cache::PolicyLaneBank>(
            sim_config.machine.hierarchy, monitor_specs,
            options.sampledSets);
    }

    Simulator simulator(sim_config, source);
    if (bank)
        simulator.hierarchy().setLanes(bank.get());
    if (observers && observers->traceSink)
        simulator.setTraceSink(observers->traceSink);

    const auto start = std::chrono::steady_clock::now();
    // Phase boundary: the simulator fires this exactly when the
    // warm-up counters reset and the measurement window opens.
    auto measure_start = start;
    if (observers)
        simulator.setOnMeasureStart([&measure_start]() {
            measure_start = std::chrono::steady_clock::now();
        });

    std::vector<Metrics> metrics;
    metrics.reserve(plan.l2Specs.size());
    metrics.push_back(simulator.run());
    for (unsigned lane = 0; lane < monitors; ++lane)
        metrics.push_back(simulator.collectLane(lane));
    for (Metrics &m : metrics)
        m.codeFootprintLines = source.uniqueCodeLines();
    const auto stop = std::chrono::steady_clock::now();
    if (!observers)
        return metrics;

    simulator.exportRegistry(observers->registry);
    observers->monitorRegistries.assign(monitors, {});
    for (unsigned lane = 0; lane < monitors; ++lane)
        simulator.exportLaneRegistry(lane,
                                     observers->monitorRegistries[lane]);
    observers->sampler = simulator.sampler();

    const auto harvested = std::chrono::steady_clock::now();
    const auto seconds = [](auto from, auto to) {
        return std::chrono::duration<double>(to - from).count();
    };
    observers->wallSeconds = seconds(start, stop);
    observers->warmupSeconds = seconds(start, measure_start);
    observers->measureSeconds = seconds(measure_start, stop);
    observers->statExportSeconds = seconds(stop, harvested);
    if (stats::SpanRecorder *recorder = observers->spans) {
        recorder->recordSpan("warmup", recorder->toNs(start),
                             recorder->toNs(measure_start));
        recorder->recordSpan("measure", recorder->toNs(measure_start),
                             recorder->toNs(stop));
        recorder->recordSpan("stat_export", recorder->toNs(stop),
                             recorder->toNs(harvested));
    }
    return metrics;
}

Metrics
runPolicy(const trace::SyntheticProgram &program,
          const std::string &l2_policy, const RunOptions &options)
{
    // A fresh executor with the profile's own seed: every policy run
    // for this benchmark replays the identical committed path.
    trace::SyntheticExecutor executor(program);
    RunPlan plan;
    plan.l2Specs = {replacement::PolicySpec::parse(l2_policy)};
    plan.l1iSpec = replacement::PolicySpec::parse(options.l1iPolicy);
    plan.options = options;
    return execute(executor, plan).front();
}

std::string
canonicalRunOptions(const RunOptions &options)
{
    stats::JsonValue doc = runOptionsJson(options);
    doc.set("seed", stats::JsonValue(options.seed));
    return doc.dump(0);
}

double
speedupPercent(const Metrics &base, const Metrics &test)
{
    return test.speedupOver(base) * 100.0;
}

double
energyReductionPercent(const Metrics &base, const Metrics &test)
{
    return test.energySavingOver(base) * 100.0;
}

double
geomeanSpeedupPercent(const std::vector<double> &percents)
{
    if (percents.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double p : percents)
        log_sum += std::log(1.0 + p / 100.0);
    return (std::exp(log_sum /
                     static_cast<double>(percents.size())) -
            1.0) *
           100.0;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || *value == '\0')
        return fallback;
    const std::string text = trim(value);
    const bool all_digits =
        !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos;
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed =
        all_digits ? std::strtoull(text.c_str(), &end, 10) : 0;
    if (!all_digits || end != text.c_str() + text.size() ||
        errno == ERANGE)
        throw std::invalid_argument(
            std::string(name) +
            ": expected an unsigned decimal integer, got '" + value +
            "'");
    return parsed;
}

std::vector<trace::WorkloadProfile>
selectedBenchmarks()
{
    const char *filter = std::getenv("EMISSARY_BENCHMARKS");
    const auto suite = trace::datacenterSuite();
    if (!filter || *filter == '\0')
        return suite;

    std::vector<trace::WorkloadProfile> out;
    for (const std::string &raw : split(filter, ',')) {
        const std::string name = trim(raw);
        if (name.empty())
            continue;
        out.push_back(trace::profileByName(name));
    }
    if (out.empty())
        throw std::invalid_argument(
            "EMISSARY_BENCHMARKS selected no benchmarks");
    return out;
}

} // namespace emissary::core
