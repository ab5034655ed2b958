/**
 * @file
 * High-level experiment runner shared by the bench harnesses and the
 * examples: build a benchmark's synthetic program once, replay the
 * identical instruction stream under different L2 policies, and
 * compare against the TPLRU + FDIP baseline exactly as the paper
 * does.
 */

#ifndef EMISSARY_CORE_EXPERIMENT_HH
#define EMISSARY_CORE_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "replacement/spec.hh"
#include "stats/registry.hh"
#include "stats/sampler.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "trace/record.hh"

namespace emissary::stats
{
class TraceSink;
class SpanRecorder;
}

namespace emissary::core
{

/** Window sizing and machine knobs for one run. */
struct RunOptions
{
    std::uint64_t warmupInstructions = 400'000;
    std::uint64_t measureInstructions = 1'600'000;
    bool fdip = true;
    bool nextLinePrefetch = true;
    bool idealL2Inst = false;
    /** EMISSARY on dual-tree TPLRU (default) or true LRU (Fig. 1). */
    bool emissaryTreePlru = true;
    /** §3 ablation: L1I replacement policy (paper notation). */
    std::string l1iPolicy = "TPLRU";
    /** §2 ablation: unselected instruction lines bypass the L2. */
    bool bypassLowPriorityInst = false;
    std::uint64_t priorityResetInstructions = 0;
    std::uint64_t seed = 0x5EEDULL;
    /**
     * Fast mode: monitor lanes of a multi-lane execute model only
     * 1 set in every @c sampledSets (a power of two; 0 or 1 = full
     * fidelity), with counters scaled back by the sampling factor at
     * collection. Ignored by one-lane runs and by lane 0, which
     * always runs full-size arrays. Measured error bounds:
     * docs/performance.md.
     */
    unsigned sampledSets = 0;
};

/**
 * What one trace pass simulates: the L2 policy of every lane, the
 * L1I policy and the run knobs. Lane 0 runs the full timing
 * Hierarchy — its Metrics are those of a sequential run of that
 * policy. Lanes 1.. run as monitor lanes (cache/lanes.hh): per-policy
 * L2+L3 arrays fed by the shared pipeline's access stream, so their
 * cache counters match a sequential run up to the L2-latency
 * feedback into fetch, and their cycle counts are first-order
 * estimates (errors quantified by bench_fastmode_validation). With
 * options.sampledSets = K > 1, monitor lanes keep only 1-in-K sets.
 */
struct RunPlan
{
    /** One spec per lane; at least one. */
    std::vector<replacement::PolicySpec> l2Specs;
    replacement::PolicySpec l1iSpec;
    RunOptions options;
};

/**
 * Attachments for one pass. Inputs are read before the pass; outputs
 * are filled when it completes. A pass run without observers pays
 * no observability cost.
 */
struct RunObservers
{
    /** Snapshot cadence in committed instructions (0 = off). */
    std::uint64_t sampleInterval = 0;
    /** JSONL event sink of lane 0, armed for the measurement window
     *  only (nullptr = off). Not owned. */
    stats::TraceSink *traceSink = nullptr;
    /** Flight recorder (nullptr = none). Not owned. When set, the
     *  pass records "warmup", "measure" and "stat_export" child
     *  slices on the calling thread's track. */
    stats::SpanRecorder *spans = nullptr;

    /** Lane 0's end-of-window counters under their dotted names. */
    stats::Registry registry;
    /** Monitor lanes' counters, lanes 1.. in plan order. */
    std::vector<stats::Registry> monitorRegistries;
    /** Lane 0's interval snapshots (empty unless sampleInterval). */
    stats::Sampler sampler;
    /** Wall seconds of the simulate call, excluding source set-up. */
    double wallSeconds = 0.0;
    /** Wall seconds from simulate start to the measurement window. */
    double warmupSeconds = 0.0;
    /** Wall seconds of the measurement window itself. */
    double measureSeconds = 0.0;
    /** Wall seconds harvesting stats after the window (registry
     *  export, sampler copy). */
    double statExportSeconds = 0.0;
};

/**
 * Run one trace pass: drive @p source, from its current position,
 * through the Alderlake machine with every lane of @p plan. This is
 * the one place a simulation runs; a sequential run is a one-lane
 * plan. Every lane's Metrics.codeFootprintLines is the source's
 * TraceSource::uniqueCodeLines() after the pass.
 *
 * @return One Metrics per lane, in plan.l2Specs order.
 * @throws std::invalid_argument when the plan has no lanes.
 */
std::vector<Metrics> execute(trace::TraceSource &source,
                             const RunPlan &plan,
                             RunObservers *observers = nullptr);

/**
 * Run one benchmark under one L2 policy: a one-lane execute over a
 * fresh executor of @p program.
 *
 * @param program The benchmark's generated program (reuse across
 *        policies so every run replays the identical stream).
 * @param l2_policy Policy in paper notation, e.g. "P(8):S&E&R(1/32)".
 * @param options Window and machine knobs.
 */
Metrics runPolicy(const trace::SyntheticProgram &program,
                  const std::string &l2_policy,
                  const RunOptions &options);

/**
 * Every RunOptions field as one canonical compact-JSON string, the
 * machine-config component of a grid cell's cache identity
 * (core::cellCacheCanonical): the manifest "config" object
 * (runOptionsJson) plus the seed. Sharing that one serializer means
 * a new RunOptions field added to the manifest also keys the result
 * cache, so configs differing only in it cannot collide.
 */
std::string canonicalRunOptions(const RunOptions &options);

/** Speedup of @p test over @p base in percent (paper convention). */
double speedupPercent(const Metrics &base, const Metrics &test);

/** Energy reduction of @p test vs @p base in percent. */
double energyReductionPercent(const Metrics &base, const Metrics &test);

/** Geomean of percent speedups: gmean(1 + s_i/100) - 1, in percent. */
double geomeanSpeedupPercent(const std::vector<double> &percents);

/**
 * Read an unsigned environment override, e.g.
 * EMISSARY_BENCH_INSTRUCTIONS, falling back to @p fallback.
 * @throws std::invalid_argument naming the variable when the value is
 *         set but is not a plain decimal unsigned integer.
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/** The benchmark subset to sweep, honouring EMISSARY_BENCHMARKS
 *  (comma-separated names; empty = full suite). */
std::vector<trace::WorkloadProfile> selectedBenchmarks();

} // namespace emissary::core

#endif // EMISSARY_CORE_EXPERIMENT_HH
