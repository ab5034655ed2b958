/**
 * @file
 * The traced run. Spans are recorded from outside the simulator: a
 * mirror of Simulator::run built from the public layer calls clocks
 * every call of every cycle, a timing TraceSource decorator clocks the
 * record feed, and a layer's self time is its span minus the feed it
 * pulled and minus the calibrated cost of one clock read. Standalone probes time the cache layer per L2 policy
 * family, the fused lane bank, and EMTC decode.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/backend.hh"
#include "bench.hh"
#include "cache/hierarchy.hh"
#include "core/config.hh"
#include "core/inst.hh"
#include "core/simulator.hh"
#include "frontend/frontend.hh"
#include "replacement/spec.hh"
#include "workload/emtc.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;
using emissary::core::Simulator;
using emissary::trace::TraceRecord;

std::uint64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

/** Timing decorator: forwards to the wrapped source and clocks every
 *  record it hands out. */
class TimedSource final : public emissary::trace::TraceSource
{
  public:
    explicit TimedSource(emissary::trace::TraceSource &inner)
        : inner_(inner)
    {
    }

    TraceRecord
    next() override
    {
        const auto start = Clock::now();
        const TraceRecord rec = inner_.next();
        ns_ += nsBetween(start, Clock::now());
        ++records_;
        return rec;
    }

    void
    fill(TraceRecord *out, std::size_t n) override
    {
        const auto start = Clock::now();
        inner_.fill(out, n);
        ns_ += nsBetween(start, Clock::now());
        records_ += n;
    }

    const char *name() const override { return inner_.name(); }

    std::uint64_t ns() const { return ns_; }
    std::uint64_t records() const { return records_; }

  private:
    emissary::trace::TraceSource &inner_;
    std::uint64_t ns_ = 0;
    std::uint64_t records_ = 0;
};

/** The simulator configuration runGrid gives cell (@p policy,
 *  @p options). */
Simulator::Config
cellConfig(const std::string &policy, const RunOptions &options)
{
    const auto l2 = emissary::replacement::PolicySpec::parse(policy);
    const auto l1i =
        emissary::replacement::PolicySpec::parse(options.l1iPolicy);
    emissary::core::MachineOptions machine;
    machine.l2Spec = l2;
    machine.l1iSpec = l1i;
    machine.l2Policy = l2.toString();
    machine.l1iPolicy = l1i.toString();
    machine.emissaryTreePlru = options.emissaryTreePlru;
    machine.bypassLowPriorityInst = options.bypassLowPriorityInst;
    machine.fdip = options.fdip;
    machine.nextLinePrefetch = options.nextLinePrefetch;
    machine.idealL2Inst = options.idealL2Inst;
    machine.seed = options.seed;

    Simulator::Config config;
    config.machine = emissary::core::alderlakeConfig(machine);
    config.warmupInstructions = options.warmupInstructions;
    config.measureInstructions = options.measureInstructions;
    config.priorityResetInstructions =
        options.priorityResetInstructions;
    return config;
}

/** The cycle budget Simulator::run enforces. */
std::uint64_t
cycleBudget(const Simulator::Config &config)
{
    return config.maxCycles > 0
               ? config.maxCycles
               : 400 * (config.warmupInstructions +
                        config.measureInstructions) +
                     1'000'000;
}

enum Layer
{
    kTick,
    kExecute,
    kCommit,
    kIssue,
    kFetch,
    kPrefetch,
    kPredict,
    kLayers
};

/** Everything the traced run learns from one cell. */
struct CellTrace
{
    Metrics metrics;
    /** Self host ns per layer over every simulated cycle. */
    std::array<std::uint64_t, kLayers> selfNs{};
    std::uint64_t fillNs = 0;
    std::uint64_t fillRecords = 0;
    /** Warm-up plus measurement cycles. */
    std::uint64_t cycles = 0;
    double wallSeconds = 0.0;
    /** Measurement-window counts. */
    std::uint64_t windowCycles = 0;
    std::uint64_t idleRobEmpty = 0;
    std::uint64_t idleRobBusy = 0;
    double mshrSum = 0.0;
    emissary::cache::HierarchyStats hierarchy;
    emissary::frontend::FrontEndStats frontend;
};

/**
 * Simulator::run, stepped through the public layer calls in
 * Simulator::stepCycle's order with a clock read between each, and the
 * window composed by composeMetrics as Simulator::collect does.
 */
CellTrace
traceCell(const RowInput &input, const Simulator::Config &config)
{
    using emissary::backend::Backend;
    using emissary::cache::Hierarchy;
    using emissary::frontend::FrontEnd;

    emissary::trace::ReplayCursor cursor(input.buffer);
    TimedSource source(cursor);
    Hierarchy hierarchy(config.machine.hierarchy);
    FrontEnd frontend(config.machine.frontend, source, hierarchy);
    Backend backend(config.machine.backend, hierarchy);
    backend.setResolveCallback(
        [&frontend](std::uint64_t seq, std::uint64_t cycle) {
            frontend.onBranchResolved(seq, cycle);
        });
    std::deque<emissary::core::DynInst> decode_queue;

    CellTrace out;
    const std::uint64_t budget = cycleBudget(config);
    std::uint64_t now = 0;
    bool measuring = false;
    std::array<Clock::time_point, 9> at;
    std::array<std::uint64_t, 9> fill;
    auto mark = [&](std::size_t i) {
        at[i] = Clock::now();
        fill[i] = source.ns();
    };
    auto charge = [&](Layer layer, std::size_t i) {
        out.selfNs[layer] +=
            nsBetween(at[i - 1], at[i]) - (fill[i] - fill[i - 1]);
    };
    // What one empty span costs: a clock read plus the feed counter.
    // Every charged span pays it once, so it is taken off below.
    constexpr int kCalibrationSpans = 100'000;
    std::uint64_t empty_ns = 0;
    for (int i = 0; i < kCalibrationSpans; ++i) {
        mark(0);
        mark(1);
        empty_ns += nsBetween(at[0], at[1]);
    }
    auto step = [&]() {
        const std::uint64_t committed = backend.stats().committed;
        mark(0);
        hierarchy.tick(now);
        mark(1);
        backend.executeStage(now);
        mark(2);
        backend.commitStage(now);
        mark(3);
        const bool idle = backend.stats().committed == committed;
        const bool rob_empty = backend.robEmpty();
        const auto pending = frontend.pendingFetchLine(now);
        mark(4);
        backend.issueStage(now, decode_queue, pending);
        mark(5);
        frontend.fetch(now, decode_queue);
        mark(6);
        frontend.prefetch(now);
        mark(7);
        frontend.predict(now);
        mark(8);
        ++now;
        charge(kTick, 1);
        charge(kExecute, 2);
        charge(kCommit, 3);
        charge(kFetch, 4);  // pendingFetchLine: the fetch-side query
        charge(kIssue, 5);
        charge(kFetch, 6);
        charge(kPrefetch, 7);
        charge(kPredict, 8);
        if (measuring) {
            out.idleRobEmpty += idle && rob_empty ? 1 : 0;
            out.idleRobBusy += idle && !rob_empty ? 1 : 0;
            out.mshrSum += static_cast<double>(hierarchy.outstanding());
        }
        if (now > budget)
            throw std::runtime_error("traced cell exceeded its cycle "
                                     "budget");
    };

    const auto start = Clock::now();
    hierarchy.setWarming(true);
    frontend.setWarming(true);
    while (backend.stats().committed < config.warmupInstructions)
        step();
    hierarchy.setWarming(false);
    frontend.setWarming(false);
    hierarchy.stats().reset();
    backend.stats().reset();
    frontend.stats().reset();
    measuring = true;
    const std::uint64_t measure_start = now;
    std::uint64_t last_priority_reset = 0;
    while (backend.stats().committed < config.measureInstructions) {
        step();
        if (config.priorityResetInstructions > 0 &&
            backend.stats().committed - last_priority_reset >=
                config.priorityResetInstructions) {
            hierarchy.resetPriorities();
            last_priority_reset = backend.stats().committed;
        }
    }
    out.wallSeconds = nsBetween(start, Clock::now()) * 1e-9;
    out.cycles = now;
    for (std::size_t l = 0; l < kLayers; ++l) {
        // Fetch is charged two spans a cycle, every other layer one.
        const std::uint64_t spans = now * (l == kFetch ? 2 : 1);
        const std::uint64_t overhead =
            empty_ns * spans / kCalibrationSpans;
        out.selfNs[l] -= std::min(out.selfNs[l], overhead);
    }
    out.windowCycles = now - measure_start;
    out.fillNs = source.ns();
    out.fillRecords = source.records();
    out.hierarchy = hierarchy.stats();
    out.frontend = frontend.stats();

    const emissary::backend::BackendStats &bs = backend.stats();
    emissary::core::MetricsInputs inputs;
    inputs.benchmark = source.name();
    inputs.policy = hierarchy.l2().policy().name();
    inputs.hierarchy = hierarchy.stats();
    inputs.backend = bs;
    inputs.frontend = frontend.stats();
    inputs.windowCycles = out.windowCycles;
    inputs.starvationCycles = bs.starvationCycles;
    inputs.starvationIqEmptyCycles = bs.starvationIqEmptyCycles;
    inputs.emissaryBits =
        hierarchy.l2().spec().family ==
        emissary::replacement::PolicyFamily::EmissaryP;
    const auto hist = hierarchy.l2().priorityDistribution();
    inputs.priorityDistribution.resize(hist.domain());
    for (std::size_t i = 0; i < hist.domain(); ++i)
        inputs.priorityDistribution[i] = hist.fraction(i);
    out.metrics = emissary::core::composeMetrics(inputs);
    out.metrics.codeFootprintLines = cursor.uniqueCodeLines();
    return out;
}

/** The same cell through Simulator::run, untraced. */
Metrics
runCell(const RowInput &input, const Simulator::Config &config,
        double &wall_seconds, std::uint64_t &cycles)
{
    emissary::trace::ReplayCursor cursor(input.buffer);
    Simulator simulator(config, cursor);
    const double start = nowSeconds();
    Metrics metrics = simulator.run();
    wall_seconds = nowSeconds() - start;
    cycles = simulator.now();
    metrics.codeFootprintLines = cursor.uniqueCodeLines();
    return metrics;
}

/** One access of a cache probe stream. */
struct ProbeAccess
{
    std::uint64_t line = 0;
    std::uint8_t kind = 0;  // 0 instruction, 1 load, 2 store
};

/** Records of a row replayed into each probe hierarchy. */
constexpr std::uint64_t kProbeRecords = 400'000;

/** The row's instruction-line stream (from each record's pc, one
 *  access per new line) interleaved with its data-line stream. */
std::vector<ProbeAccess>
probeStream(const emissary::trace::RecordBuffer &buffer)
{
    std::vector<ProbeAccess> stream;
    const std::uint64_t n = std::min(kProbeRecords, buffer.size());
    std::uint64_t last_line = ~0ULL;
    for (std::uint64_t i = 0; i < n; ++i) {
        const TraceRecord rec = buffer.record(i);
        const std::uint64_t line = rec.pc >> 6;
        if (line != last_line) {
            stream.push_back({line, 0});
            last_line = line;
        }
        if (emissary::trace::isMemory(rec.cls))
            stream.push_back(
                {rec.memAddr >> 6,
                 static_cast<std::uint8_t>(
                     rec.cls == emissary::trace::InstClass::Store ? 2
                                                                  : 1)});
    }
    return stream;
}

/** Host ns spent replaying @p stream into a fresh hierarchy whose L2
 *  runs @p policy, one access per cycle. */
std::uint64_t
probeNs(const std::vector<ProbeAccess> &stream,
        const std::string &policy, const RunOptions &options)
{
    emissary::cache::Hierarchy hierarchy(
        cellConfig(policy, options).machine.hierarchy);
    std::uint64_t now = 0;
    const auto start = Clock::now();
    for (const ProbeAccess &access : stream) {
        if (access.kind == 0)
            hierarchy.requestInstruction(
                access.line, now, emissary::cache::RequestKind::Demand);
        else
            hierarchy.requestData(access.line, now, access.kind == 2);
        hierarchy.tick(now);
        ++now;
    }
    return nsBetween(start, Clock::now());
}

/** The L2 policy families the cache probe times. */
constexpr std::array<std::pair<const char *, const char *>, 3>
    kProbeFamilies = {{{"tplru", "TPLRU"},
                       {"p8_se", "P(8):S&E"},
                       {"drrip", "DRRIP"}}};

double
perK(double count, double instructions)
{
    return instructions > 0.0 ? count * 1000.0 / instructions : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

std::vector<Metric>
runTraced(const Workload &workload, const SweepOutcome &sweep,
          ThreadPool &pool, const std::string &inputs_dir, Tally &tally)
{
    const std::uint64_t records = workload.records();
    std::map<std::size_t, RowInput> inputs;
    auto input_for = [&](std::size_t w) -> const RowInput & {
        auto it = inputs.find(w);
        if (it == inputs.end())
            it = inputs
                     .emplace(w, buildRowInput(workload.rows[w],
                                               records, pool))
                     .first;
        return it->second;
    };

    // Traced cells, each also run untraced for the overhead ratio.
    // Both must equal the timed multi-worker sweep's cell.
    std::array<double, kLayers> self_ns{};
    double fill_ns = 0.0, fill_records = 0.0;
    double cycles = 0.0, window_cycles = 0.0, instructions = 0.0;
    double idle_empty = 0.0, idle_busy = 0.0, mshr_sum = 0.0;
    emissary::cache::HierarchyStats hierarchy;
    emissary::frontend::FrontEndStats frontend;
    double traced_wall = 0.0, untraced_wall = 0.0, untraced_cycles = 0.0;
    for (const auto &[w, r] : workload.tracedCells) {
        const GridWorkload &row = workload.rows[w];
        const Simulator::Config config =
            cellConfig(workload.policies[r], workload.options);
        const std::uint64_t footprint = rowFootprint(row);
        bool ok = sweep.reference != nullptr;
        try {
            const RowInput &input = input_for(w);
            double wall = 0.0;
            std::uint64_t run_cycles = 0;
            Metrics plain = runCell(input, config, wall, run_cycles);
            CellTrace cell = traceCell(input, config);
            for (Metrics *m : {&plain, &cell.metrics}) {
                m->benchmark = row.name;
                if (footprint != 0)
                    m->codeFootprintLines = footprint;
                ok = ok && sameMetrics(*m, sweep.reference->at(w, r));
            }
            for (std::size_t l = 0; l < kLayers; ++l)
                self_ns[l] += static_cast<double>(cell.selfNs[l]);
            fill_ns += static_cast<double>(cell.fillNs);
            fill_records += static_cast<double>(cell.fillRecords);
            cycles += static_cast<double>(cell.cycles);
            window_cycles += static_cast<double>(cell.windowCycles);
            instructions +=
                static_cast<double>(cell.metrics.instructions);
            idle_empty += static_cast<double>(cell.idleRobEmpty);
            idle_busy += static_cast<double>(cell.idleRobBusy);
            mshr_sum += cell.mshrSum;
            hierarchy += cell.hierarchy;
            frontend += cell.frontend;
            traced_wall += cell.wallSeconds;
            untraced_wall += wall;
            untraced_cycles += static_cast<double>(run_cycles);
        } catch (const std::exception &e) {
            note(std::string("traced cell failed: ") + e.what());
            ok = false;
        }
        tally.cell(ok);
    }

    // Cache probe: every traced row's streams, per L2 policy family.
    std::array<double, kProbeFamilies.size()> probe_ns{};
    double probe_accesses = 0.0;
    for (const auto &[w, input] : inputs) {
        const std::vector<ProbeAccess> stream =
            probeStream(*input.buffer);
        probe_accesses += static_cast<double>(stream.size());
        for (std::size_t f = 0; f < kProbeFamilies.size(); ++f)
            probe_ns[f] += static_cast<double>(probeNs(
                stream, kProbeFamilies[f].second, workload.options));
    }

    // Lane bank cost: the first traced row as one fused group, with
    // every policy and with the timing lane alone, on one worker;
    // alternated kLaneRepeats times, medians compared.
    constexpr int kLaneRepeats = 3;
    const std::size_t lane_row = workload.tracedCells.front().first;
    double lanes_cost = 0.0;
    {
        ThreadPool solo(1);
        emissary::core::GridOptions fused;
        fused.fused = true;
        const std::vector<GridWorkload> row = {workload.rows[lane_row]};
        const PolicyGrid all = PolicyGrid::sweep(row, workload.policies,
                                                 workload.options);
        const PolicyGrid one = PolicyGrid::sweep(
            row, {workload.policies.front()}, workload.options);
        std::vector<double> all_seconds, one_seconds;
        for (int rep = 0; rep < kLaneRepeats; ++rep) {
            for (const PolicyGrid *grid : {&all, &one}) {
                bool ok = sweep.reference != nullptr;
                try {
                    const GridResults results =
                        emissary::core::runGrid(*grid, solo, fused);
                    ok = ok && sameMetrics(results.at(0, 0),
                                           sweep.reference->at(lane_row,
                                                               0));
                    (grid == &all ? all_seconds : one_seconds)
                        .push_back(results.timing().serialSeconds());
                } catch (const std::exception &e) {
                    note(std::string("lane bank run failed: ") +
                         e.what());
                    ok = false;
                }
                tally.cell(ok);
            }
        }
        lanes_cost = ratio(ratio(median(all_seconds),
                                 median(one_seconds)) -
                               1.0,
                           static_cast<double>(workload.policies.size()) -
                               1.0);
    }

    // Workload decode: stream the row's EMTC container in the
    // frontend's 256-record batches, single-threaded.
    double decode_ns_per_record = 0.0;
    {
        const GridWorkload &row = workload.rows[lane_row];
        const std::string path =
            row.traceBacked()
                ? row.tracePath
                : packedTrace(row.profile, records, inputs_dir);
        emissary::workload::PackedTraceSource source(path);
        std::vector<TraceRecord> batch(256);
        std::uint64_t decoded = 0;
        const auto start = Clock::now();
        while (decoded < source.recordCount()) {
            source.fill(batch.data(), batch.size());
            decoded += batch.size();
        }
        decode_ns_per_record = ratio(
            static_cast<double>(nsBetween(start, Clock::now())),
            static_cast<double>(decoded));
    }

    auto per_cycle = [&](Layer layer) {
        return ratio(self_ns[layer], cycles);
    };
    auto per_kinst = [&](std::uint64_t count) {
        return perK(static_cast<double>(count), instructions);
    };
    std::vector<Metric> metrics = {
        {"core.host_ns_per_cycle", ratio(untraced_wall * 1e9,
                                         untraced_cycles), "ns"},
        {"core.cycles_per_kinst", perK(window_cycles, instructions),
         "cycles"},
        {"core.nocommit_robempty_share", ratio(idle_empty, window_cycles),
         "share"},
        {"core.nocommit_robbusy_share", ratio(idle_busy, window_cycles),
         "share"},
        {"core.worker_busy_share", median(sweep.workerBusyShare),
         "share"},
        {"frontend.predict_ns_per_cycle", per_cycle(kPredict), "ns"},
        {"frontend.prefetch_ns_per_cycle", per_cycle(kPrefetch), "ns"},
        {"frontend.fetch_ns_per_cycle", per_cycle(kFetch), "ns"},
        {"frontend.blocks_per_kinst", per_kinst(frontend.blocksFormed),
         "count"},
        {"frontend.btb_misses_per_kinst", per_kinst(frontend.btbMisses),
         "count"},
        {"frontend.cond_mispredicts_per_kinst",
         per_kinst(frontend.condMispredicts), "count"},
        {"backend.issue_ns_per_cycle", per_cycle(kIssue), "ns"},
        {"backend.execute_ns_per_cycle", per_cycle(kExecute), "ns"},
        {"backend.commit_ns_per_cycle", per_cycle(kCommit), "ns"},
        {"cache.tick_ns_per_cycle", per_cycle(kTick), "ns"},
        {"cache.mshr_mean", ratio(mshr_sum, window_cycles), "count"},
        {"cache.l1i_access_per_kinst", per_kinst(hierarchy.l1iAccesses),
         "count"},
        {"cache.l2_access_per_kinst",
         per_kinst(hierarchy.l2InstAccesses + hierarchy.l2DataAccesses),
         "count"},
        {"cache.l3_access_per_kinst", per_kinst(hierarchy.l3Accesses),
         "count"},
    };
    for (std::size_t f = 0; f < kProbeFamilies.size(); ++f)
        metrics.push_back({std::string("cache.probe_ns_per_access.") +
                               kProbeFamilies[f].first,
                           ratio(probe_ns[f], probe_accesses), "ns"});
    metrics.push_back(
        {"cache.lanes_cost_per_lane", lanes_cost, "share"});
    metrics.push_back({"trace.fill_ns_per_record",
                       ratio(fill_ns, fill_records), "ns"});
    metrics.push_back(
        {"trace.build_s", median(sweep.traceBuildSeconds), "s"});
    metrics.push_back({"workload.decode_ns_per_record",
                       decode_ns_per_record, "ns"});
    metrics.push_back({"bench.trace_overhead",
                       ratio(traced_wall, untraced_wall), "x"});
    return metrics;
}

} // namespace perfbench
