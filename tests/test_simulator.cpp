/**
 * @file
 * End-to-end simulator tests: metric consistency, determinism,
 * warmup-window accounting, configuration effects (FDIP, ideal L2I),
 * the §6 priority reset, the event-driven run() against the
 * cycle-by-cycle stepCycle() reference, and run() against the stage
 * calls driven over a std::deque decode queue.
 */

#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <iterator>
#include <string>

#include "core/experiment.hh"
#include "core/observability.hh"
#include "core/simulator.hh"
#include "stats/registry.hh"
#include "stats/trace_sink.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"

namespace emissary::core
{
namespace
{

trace::WorkloadProfile
smallProfile()
{
    trace::WorkloadProfile p;
    p.name = "sim-test";
    p.codeFootprintBytes = 256 * 1024;
    p.transactionTypes = 16;
    p.functionsPerTransaction = 8;
    p.dataFootprintBytes = 4 << 20;
    p.hotDataBytes = 128 * 1024;
    p.seed = 99;
    return p;
}

Simulator::Config
simConfig(const std::string &policy, std::uint64_t measure = 150000)
{
    MachineOptions options;
    options.l2Policy = policy;
    Simulator::Config config;
    config.machine = alderlakeConfig(options);
    config.warmupInstructions = measure / 4;
    config.measureInstructions = measure;
    return config;
}

TEST(Simulator, MetricsAreConsistent)
{
    const trace::SyntheticProgram program(smallProfile());
    trace::SyntheticExecutor executor(program);
    Simulator sim(simConfig("TPLRU"), executor);
    const Metrics m = sim.run();

    // Commit retires up to 8 per cycle, so the window can overshoot
    // the target by at most width-1 instructions.
    EXPECT_GE(m.instructions, 150000u);
    EXPECT_LT(m.instructions, 150008u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_NEAR(m.ipc,
                static_cast<double>(m.instructions) /
                    static_cast<double>(m.cycles),
                1e-9);
    EXPECT_GT(m.ipc, 0.1);
    EXPECT_LT(m.ipc, 8.0);
    EXPECT_GE(m.l1iMpki, m.l2InstMpki);
    EXPECT_LE(m.feStallCycles + m.beStallCycles, m.cycles);
    EXPECT_GE(m.starvationCycles, m.starvationIqEmptyCycles);
    EXPECT_GT(m.energy.total(), 0.0);
    EXPECT_EQ(m.benchmark, "sim-test");
    EXPECT_EQ(m.policy, "TPLRU");
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const trace::SyntheticProgram program(smallProfile());
    trace::SyntheticExecutor e1(program);
    trace::SyntheticExecutor e2(program);
    Simulator s1(simConfig("P(8):S&E"), e1);
    Simulator s2(simConfig("P(8):S&E"), e2);
    const Metrics a = s1.run();
    const Metrics b = s2.run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.starvationCycles, b.starvationCycles);
    EXPECT_EQ(a.highPriorityFills, b.highPriorityFills);
}

TEST(Simulator, PoliciesSeeIdenticalInstructionStream)
{
    // Different L2 policies must replay the same committed path: the
    // instruction count and mix are identical, only timing differs.
    const trace::SyntheticProgram program(smallProfile());
    RunOptions options;
    options.measureInstructions = 100000;
    options.warmupInstructions = 25000;
    const Metrics a = runPolicy(program, "TPLRU", options);
    const Metrics b = runPolicy(program, "P(8):S&E", options);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.codeFootprintLines, b.codeFootprintLines);
}

TEST(Simulator, EmissaryProducesPriorityActivity)
{
    const trace::SyntheticProgram program(smallProfile());
    RunOptions options;
    options.measureInstructions = 200000;
    options.warmupInstructions = 50000;
    const Metrics base = runPolicy(program, "TPLRU", options);
    const Metrics emi = runPolicy(program, "P(8):S", options);
    EXPECT_EQ(base.highPriorityFills, 0u);
    EXPECT_GT(emi.highPriorityFills, 0u);
    EXPECT_GT(emi.priorityUpgrades, 0u);
    // The Fig. 8 distribution must sum to ~1 over all bins.
    double sum = 0.0;
    for (const double f : emi.priorityDistribution)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Simulator, FdipImprovesPerformance)
{
    const trace::SyntheticProgram program(smallProfile());
    RunOptions with;
    with.measureInstructions = 150000;
    with.warmupInstructions = 40000;
    RunOptions without = with;
    without.fdip = false;
    const Metrics a = runPolicy(program, "TPLRU", with);
    const Metrics b = runPolicy(program, "TPLRU", without);
    EXPECT_LT(a.cycles, b.cycles)
        << "FDIP must speed up a front-end-bound workload";
}

TEST(Simulator, IdealL2InstIsAnUpperBoundIsh)
{
    const trace::SyntheticProgram program(smallProfile());
    RunOptions normal;
    normal.measureInstructions = 150000;
    normal.warmupInstructions = 40000;
    RunOptions ideal = normal;
    ideal.idealL2Inst = true;
    const Metrics a = runPolicy(program, "TPLRU", normal);
    const Metrics b = runPolicy(program, "TPLRU", ideal);
    EXPECT_LE(b.cycles, a.cycles);
}

TEST(Simulator, PriorityResetBoundsSaturation)
{
    const trace::SyntheticProgram program(smallProfile());
    RunOptions options;
    options.measureInstructions = 200000;
    options.warmupInstructions = 50000;
    RunOptions with_reset = options;
    with_reset.priorityResetInstructions = 20000;
    const Metrics a = runPolicy(program, "P(8):S", options);
    const Metrics b = runPolicy(program, "P(8):S", with_reset);
    // Resetting cannot increase the end-of-run protected population.
    double a_saturated = 0.0;
    double b_saturated = 0.0;
    for (std::size_t i = 8; i < a.priorityDistribution.size(); ++i) {
        a_saturated += a.priorityDistribution[i];
        b_saturated += b.priorityDistribution[i];
    }
    EXPECT_LE(b_saturated, a_saturated + 1e-9);
}

/** What one run leaves behind; none of it may depend on whether the
 *  clock advanced by events or one cycle at a time. */
struct RunRecord
{
    stats::JsonValue metrics;
    stats::JsonValue counters;
    stats::JsonValue samples;
    std::uint64_t now = 0;
    std::string trace;
};

/**
 * Run @p config over a fresh executor of @p program, through run()
 * or (@p stepped) through run()'s protocol with stepCycle() advancing
 * every cycle, with a JSONL trace sink writing @p trace_path.
 */
RunRecord
recordRun(const trace::SyntheticProgram &program,
          const Simulator::Config &config, const std::string &trace_path,
          bool stepped)
{
    trace::SyntheticExecutor executor(program);
    Simulator sim(config, executor);
    stats::TraceSink sink(trace_path);
    sim.setTraceSink(&sink);
    Metrics metrics;
    if (stepped) {
        sim.beginWarmup();
        while (sim.committed() < config.warmupInstructions)
            sim.stepCycle();
        sim.beginMeasurement();
        while (sim.committed() < config.measureInstructions) {
            sim.stepCycle();
            sim.afterMeasuredCycle();
        }
        metrics = sim.endMeasurement();
    } else {
        metrics = sim.run();
    }

    RunRecord out;
    out.metrics = metrics.toJson();
    stats::Registry registry;
    sim.exportRegistry(registry);
    out.counters = registryJson(registry);
    out.samples = sim.sampler().toJson();
    out.now = sim.now();
    sink.close();
    std::ifstream in(trace_path, std::ios::binary);
    out.trace.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    return out;
}

TEST(Simulator, EventLoopMatchesCycleStepping)
{
    // Front-end-bound rows first (long empty-ROB fill waits), then
    // back-end-bound ones (long busy-ROB load waits): the two kinds
    // of idle span run() jumps over.
    const char *const rows[] = {"tomcat", "verilator", "finagle-http",
                                "xapian", "tpcc",      "kafka"};
    const char *const policies[] = {"TPLRU", "P(8):S&E&R(1/32)",
                                    "DRRIP", "M:S&E"};
    constexpr unsigned kVariants = 4;
    const std::string trace_path =
        ::testing::TempDir() + "test_simulator_event_loop.jsonl";

    unsigned row_index = 0;
    for (const char *row : rows) {
        const trace::SyntheticProgram program(trace::profileByName(row));
        unsigned policy_index = 0;
        for (const char *policy : policies) {
            // Each cell runs one machine variant; across the grid
            // every variant meets every policy and both row kinds.
            const unsigned variant =
                (row_index + policy_index) % kVariants;
            MachineOptions options;
            options.l2Policy = policy;
            options.fdip = variant != 2;
            options.idealL2Inst = variant == 3;
            Simulator::Config config;
            config.machine = alderlakeConfig(options);
            config.warmupInstructions = 20000;
            config.measureInstructions = 60000;
            config.sampleInterval = 15000;
            if (variant == 1)
                config.priorityResetInstructions = 10000;
            const std::string cell = std::string(row) + " x " +
                                     policy + " variant " +
                                     std::to_string(variant);

            const RunRecord event_driven =
                recordRun(program, config, trace_path, false);
            const RunRecord stepped =
                recordRun(program, config, trace_path, true);
            EXPECT_TRUE(event_driven.metrics == stepped.metrics)
                << cell << "\n" << event_driven.metrics.dump() << "\n"
                << stepped.metrics.dump();
            EXPECT_TRUE(event_driven.counters == stepped.counters)
                << cell << "\n" << event_driven.counters.dump()
                << "\n" << stepped.counters.dump();
            EXPECT_TRUE(event_driven.samples == stepped.samples)
                << cell;
            EXPECT_EQ(event_driven.now, stepped.now) << cell;
            EXPECT_FALSE(stepped.trace.empty()) << cell;
            EXPECT_TRUE(event_driven.trace == stepped.trace) << cell;
            ++policy_index;
        }
        ++row_index;
    }
}

/**
 * Run @p config over a fresh executor of @p program the way a caller
 * outside Simulator drives the layers: every cycle stepped through
 * the public stage calls in stepCycle's order, with a std::deque as
 * the decode queue, and the window composed as Simulator::collect
 * does. Fills @p registry with the window's counters.
 */
Metrics
dequeStageLoop(const trace::SyntheticProgram &program,
               const Simulator::Config &config,
               stats::Registry &registry)
{
    trace::SyntheticExecutor source(program);
    cache::Hierarchy hierarchy(config.machine.hierarchy);
    frontend::FrontEnd frontend(config.machine.frontend, source,
                                hierarchy);
    backend::Backend backend(config.machine.backend, hierarchy);
    backend.setResolveCallback(
        [&frontend](std::uint64_t seq, std::uint64_t cycle) {
            frontend.onBranchResolved(seq, cycle);
        });
    std::deque<DynInst> decode_queue;
    std::uint64_t now = 0;
    const auto step = [&]() {
        hierarchy.tick(now);
        backend.executeStage(now);
        backend.commitStage(now);
        backend.issueStage(now, decode_queue,
                           frontend.pendingFetchLine(now));
        frontend.fetch(now, decode_queue);
        frontend.prefetch(now);
        frontend.predict(now);
        ++now;
    };

    hierarchy.setWarming(true);
    frontend.setWarming(true);
    while (backend.stats().committed < config.warmupInstructions)
        step();
    hierarchy.setWarming(false);
    frontend.setWarming(false);
    hierarchy.stats().reset();
    backend.stats().reset();
    frontend.stats().reset();
    const std::uint64_t measure_start = now;
    while (backend.stats().committed < config.measureInstructions)
        step();

    const backend::BackendStats &bs = backend.stats();
    MetricsInputs inputs;
    inputs.benchmark = source.name();
    inputs.policy = hierarchy.l2().policy().name();
    inputs.hierarchy = hierarchy.stats();
    inputs.backend = bs;
    inputs.frontend = frontend.stats();
    inputs.windowCycles = now - measure_start;
    inputs.starvationCycles = bs.starvationCycles;
    inputs.starvationIqEmptyCycles = bs.starvationIqEmptyCycles;
    inputs.emissaryBits = hierarchy.l2().spec().family ==
                          replacement::PolicyFamily::EmissaryP;
    const auto hist = hierarchy.l2().priorityDistribution();
    inputs.priorityDistribution.resize(hist.domain());
    for (std::size_t i = 0; i < hist.domain(); ++i)
        inputs.priorityDistribution[i] = hist.fraction(i);
    populateRegistry(registry, hierarchy.stats(), bs, frontend.stats());
    return composeMetrics(inputs);
}

TEST(Simulator, DequeStageLoopMatchesRun)
{
    // The stage templates' std::deque instantiation, driven cycle by
    // cycle from outside, against run() over its FixedRing.
    const char *const rows[] = {"tomcat", "verilator", "xapian"};
    const char *const policies[] = {"TPLRU", "P(8):S&E&R(1/32)"};
    for (const char *row : rows) {
        const trace::SyntheticProgram program(trace::profileByName(row));
        for (const char *policy : policies) {
            const std::string cell = std::string(row) + " x " + policy;
            MachineOptions options;
            options.l2Policy = policy;
            Simulator::Config config;
            config.machine = alderlakeConfig(options);
            config.warmupInstructions = 20000;
            config.measureInstructions = 60000;

            trace::SyntheticExecutor executor(program);
            Simulator sim(config, executor);
            const Metrics run = sim.run();
            stats::Registry run_registry;
            sim.exportRegistry(run_registry);

            stats::Registry loop_registry;
            const Metrics loop =
                dequeStageLoop(program, config, loop_registry);
            EXPECT_TRUE(run.toJson() == loop.toJson())
                << cell << "\n" << run.toJson().dump() << "\n"
                << loop.toJson().dump();
            EXPECT_TRUE(registryJson(run_registry) ==
                        registryJson(loop_registry))
                << cell << "\n" << registryJson(run_registry).dump()
                << "\n" << registryJson(loop_registry).dump();
        }
    }
}

TEST(Experiment, SpeedupHelpers)
{
    Metrics base;
    base.cycles = 1000;
    Metrics fast;
    fast.cycles = 800;
    EXPECT_NEAR(speedupPercent(base, fast), 25.0, 1e-9);
    EXPECT_NEAR(geomeanSpeedupPercent({25.0, 0.0}), 11.8, 0.1);
    EXPECT_DOUBLE_EQ(geomeanSpeedupPercent({}), 0.0);
}

TEST(Experiment, EnvParsing)
{
    ::setenv("EMISSARY_TEST_ENV", "123", 1);
    EXPECT_EQ(envU64("EMISSARY_TEST_ENV", 7), 123u);
    ::unsetenv("EMISSARY_TEST_ENV");
    EXPECT_EQ(envU64("EMISSARY_TEST_ENV", 7), 7u);
}

} // namespace
} // namespace emissary::core
