#include "core/experiment.hh"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "cache/lanes.hh"
#include "stats/json.hh"

#include "core/simulator.hh"
#include "stats/span_recorder.hh"
#include "trace/executor.hh"
#include "util/strutil.hh"

namespace emissary::core
{

Metrics
runPolicy(const trace::SyntheticProgram &program,
          const std::string &l2_policy, const RunOptions &options)
{
    return runPolicy(program,
                     replacement::PolicySpec::parse(l2_policy),
                     replacement::PolicySpec::parse(options.l1iPolicy),
                     options);
}

Metrics
runPolicy(const trace::SyntheticProgram &program,
          const replacement::PolicySpec &l2_spec,
          const replacement::PolicySpec &l1i_spec,
          const RunOptions &options)
{
    return runPolicy(program, l2_spec, l1i_spec, options, nullptr);
}

namespace
{

/**
 * Shared body of the live and replay overloads: configure the
 * machine, run the simulator over @p source, and harvest
 * instrumentation. codeFootprintLines is filled by the caller —
 * it comes from the executor (live) or the cursor (replay).
 */
Metrics
runOverSource(trace::TraceSource &source,
              const replacement::PolicySpec &l2_spec,
              const replacement::PolicySpec &l1i_spec,
              const RunOptions &options,
              RunInstrumentation *instrumentation,
              RunTelemetry *telemetry)
{
    MachineOptions machine_options;
    machine_options.l2Spec = l2_spec;
    machine_options.l1iSpec = l1i_spec;
    machine_options.l2Policy = l2_spec.toString();
    machine_options.l1iPolicy = l1i_spec.toString();
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
    if (instrumentation)
        sim_config.sampleInterval = instrumentation->sampleInterval;

    Simulator simulator(sim_config, source);
    if (instrumentation && instrumentation->traceSink)
        simulator.setTraceSink(instrumentation->traceSink);

    const auto start = std::chrono::steady_clock::now();
    // Phase boundary: the simulator fires this exactly when the
    // warm-up counters reset and the measurement window opens.
    auto measure_start = start;
    if (telemetry)
        simulator.setOnMeasureStart([&measure_start]() {
            measure_start = std::chrono::steady_clock::now();
        });
    Metrics metrics = simulator.run();
    const auto stop = std::chrono::steady_clock::now();

    if (instrumentation) {
        simulator.exportRegistry(instrumentation->registry);
        instrumentation->sampler = simulator.sampler();
        instrumentation->wallSeconds =
            std::chrono::duration<double>(stop - start).count();
    }

    if (telemetry) {
        const auto harvested = std::chrono::steady_clock::now();
        telemetry->warmupSeconds =
            std::chrono::duration<double>(measure_start - start)
                .count();
        telemetry->measureSeconds =
            std::chrono::duration<double>(stop - measure_start)
                .count();
        telemetry->statExportSeconds =
            std::chrono::duration<double>(harvested - stop).count();
        if (stats::SpanRecorder *recorder = telemetry->spans) {
            recorder->recordSpan("warmup", recorder->toNs(start),
                                 recorder->toNs(measure_start));
            recorder->recordSpan("measure",
                                 recorder->toNs(measure_start),
                                 recorder->toNs(stop));
            recorder->recordSpan("stat_export", recorder->toNs(stop),
                                 recorder->toNs(harvested));
        }
    }
    return metrics;
}

/**
 * Shared body of the fused-group overloads: lane 0 runs the timing
 * Hierarchy, the rest observe as monitor lanes.
 */
std::vector<Metrics>
groupOverSource(trace::TraceSource &source,
                const std::vector<replacement::PolicySpec> &l2_specs,
                const replacement::PolicySpec &l1i_spec,
                const RunOptions &options,
                std::vector<stats::Registry> *registries,
                RunTelemetry *telemetry)
{
    if (l2_specs.empty())
        throw std::invalid_argument("runPolicyGroup: no policies");

    MachineOptions machine_options;
    machine_options.l2Spec = l2_specs.front();
    machine_options.l1iSpec = l1i_spec;
    machine_options.l2Policy = l2_specs.front().toString();
    machine_options.l1iPolicy = l1i_spec.toString();
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

    // Monitor lanes for every spec past the first. The option knob
    // alderlakeConfig applies to the timing spec must reach them the
    // same way.
    std::vector<replacement::PolicySpec> monitor_specs(
        l2_specs.begin() + 1, l2_specs.end());
    for (replacement::PolicySpec &spec : monitor_specs)
        spec.emissaryTreePlru = options.emissaryTreePlru;
    std::unique_ptr<cache::PolicyLaneBank> bank;
    if (!monitor_specs.empty())
        bank = std::make_unique<cache::PolicyLaneBank>(
            sim_config.machine.hierarchy, monitor_specs,
            options.sampledSets);

    Simulator simulator(sim_config, source);
    if (bank)
        simulator.hierarchy().setLanes(bank.get());

    const auto start = std::chrono::steady_clock::now();
    auto measure_start = start;
    if (telemetry)
        simulator.setOnMeasureStart([&measure_start]() {
            measure_start = std::chrono::steady_clock::now();
        });

    std::vector<Metrics> metrics;
    metrics.reserve(l2_specs.size());
    metrics.push_back(simulator.run());
    for (unsigned lane = 0; lane + 1 < l2_specs.size(); ++lane)
        metrics.push_back(simulator.collectLane(lane));
    const auto stop = std::chrono::steady_clock::now();

    if (registries) {
        registries->clear();
        registries->resize(l2_specs.size());
        simulator.exportRegistry((*registries)[0]);
        for (unsigned lane = 0; lane + 1 < l2_specs.size(); ++lane)
            simulator.exportLaneRegistry(lane,
                                         (*registries)[lane + 1]);
    }

    if (telemetry) {
        const auto harvested = std::chrono::steady_clock::now();
        telemetry->warmupSeconds =
            std::chrono::duration<double>(measure_start - start)
                .count();
        telemetry->measureSeconds =
            std::chrono::duration<double>(stop - measure_start)
                .count();
        telemetry->statExportSeconds =
            std::chrono::duration<double>(harvested - stop).count();
        if (stats::SpanRecorder *recorder = telemetry->spans) {
            recorder->recordSpan("warmup", recorder->toNs(start),
                                 recorder->toNs(measure_start));
            recorder->recordSpan("measure",
                                 recorder->toNs(measure_start),
                                 recorder->toNs(stop));
            recorder->recordSpan("stat_export", recorder->toNs(stop),
                                 recorder->toNs(harvested));
        }
    }
    return metrics;
}

} // namespace

std::vector<Metrics>
runPolicyGroup(std::shared_ptr<const trace::RecordBuffer> buffer,
               const std::vector<replacement::PolicySpec> &l2_specs,
               const replacement::PolicySpec &l1i_spec,
               const RunOptions &options,
               std::vector<stats::Registry> *registries,
               RunTelemetry *telemetry)
{
    trace::ReplayCursor cursor(std::move(buffer));
    std::vector<Metrics> metrics =
        groupOverSource(cursor, l2_specs, l1i_spec, options,
                        registries, telemetry);
    for (Metrics &m : metrics)
        m.codeFootprintLines = cursor.uniqueCodeLines();
    return metrics;
}

std::vector<Metrics>
runPolicyGroup(const trace::SyntheticProgram &program,
               const std::vector<replacement::PolicySpec> &l2_specs,
               const replacement::PolicySpec &l1i_spec,
               const RunOptions &options,
               std::vector<stats::Registry> *registries,
               RunTelemetry *telemetry)
{
    trace::SyntheticExecutor executor(program);
    std::vector<Metrics> metrics =
        groupOverSource(executor, l2_specs, l1i_spec, options,
                        registries, telemetry);
    for (Metrics &m : metrics)
        m.codeFootprintLines = executor.uniqueCodeLines();
    return metrics;
}

std::vector<Metrics>
runPolicyGroup(trace::TraceSource &source,
               const std::vector<replacement::PolicySpec> &l2_specs,
               const replacement::PolicySpec &l1i_spec,
               const RunOptions &options,
               std::vector<stats::Registry> *registries,
               RunTelemetry *telemetry)
{
    return groupOverSource(source, l2_specs, l1i_spec, options,
                           registries, telemetry);
}

Metrics
runPolicy(const trace::SyntheticProgram &program,
          const replacement::PolicySpec &l2_spec,
          const replacement::PolicySpec &l1i_spec,
          const RunOptions &options,
          RunInstrumentation *instrumentation,
          RunTelemetry *telemetry)
{
    // A fresh executor with the profile's own seed: every policy run
    // for this benchmark replays the identical committed path.
    trace::SyntheticExecutor executor(program);
    Metrics metrics = runOverSource(executor, l2_spec, l1i_spec,
                                    options, instrumentation,
                                    telemetry);
    metrics.codeFootprintLines = executor.uniqueCodeLines();
    return metrics;
}

Metrics
runPolicy(std::shared_ptr<const trace::RecordBuffer> buffer,
          const replacement::PolicySpec &l2_spec,
          const replacement::PolicySpec &l1i_spec,
          const RunOptions &options,
          RunInstrumentation *instrumentation,
          RunTelemetry *telemetry)
{
    trace::ReplayCursor cursor(std::move(buffer));
    Metrics metrics = runOverSource(cursor, l2_spec, l1i_spec,
                                    options, instrumentation,
                                    telemetry);
    metrics.codeFootprintLines = cursor.uniqueCodeLines();
    return metrics;
}

Metrics
runPolicy(trace::TraceSource &source,
          const replacement::PolicySpec &l2_spec,
          const replacement::PolicySpec &l1i_spec,
          const RunOptions &options,
          RunInstrumentation *instrumentation,
          RunTelemetry *telemetry)
{
    return runOverSource(source, l2_spec, l1i_spec, options,
                         instrumentation, telemetry);
}

std::string
canonicalRunOptions(const RunOptions &options)
{
    using stats::JsonValue;
    JsonValue doc = JsonValue::object();
    doc.set("warmup_instructions",
            JsonValue(options.warmupInstructions));
    doc.set("measure_instructions",
            JsonValue(options.measureInstructions));
    doc.set("fdip", JsonValue(options.fdip));
    doc.set("next_line_prefetch",
            JsonValue(options.nextLinePrefetch));
    doc.set("ideal_l2_inst", JsonValue(options.idealL2Inst));
    doc.set("emissary_tree_plru",
            JsonValue(options.emissaryTreePlru));
    doc.set("l1i_policy", JsonValue(options.l1iPolicy));
    doc.set("bypass_low_priority_inst",
            JsonValue(options.bypassLowPriorityInst));
    doc.set("priority_reset_instructions",
            JsonValue(options.priorityResetInstructions));
    doc.set("seed", JsonValue(options.seed));
    doc.set("sampled_sets",
            JsonValue(
                static_cast<std::uint64_t>(options.sampledSets)));
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
