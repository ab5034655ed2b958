/**
 * @file
 * Golden numbers: every cell of tests/data/golden_metrics.json (8
 * suite rows x 3 L2 policies at a 300k-instruction window, written by
 * scripts/make_golden_metrics.sh from emissary_sim --stats-json) must
 * be reproduced exactly, metrics and registry counters alike.
 *
 * The other bit-identity suites compare two paths of one build, so a
 * change that moves both paths at once passes them. This one compares
 * against numbers recorded before the change.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "core/experiment.hh"
#include "core/observability.hh"
#include "stats/json.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"

namespace emissary::core
{
namespace
{

stats::JsonValue
loadFixture()
{
    const std::string path =
        std::string(EMISSARY_TEST_DATA_DIR) + "/golden_metrics.json";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    return stats::JsonValue::parse(text);
}

/** The RunOptions emissary_sim derives from a run's "config". */
RunOptions
optionsFrom(const stats::JsonValue &config)
{
    RunOptions options;
    options.warmupInstructions =
        config.find("warmup_instructions")->asUint();
    options.measureInstructions =
        config.find("measure_instructions")->asUint();
    options.fdip = config.find("fdip")->asBool();
    options.nextLinePrefetch =
        config.find("next_line_prefetch")->asBool();
    options.idealL2Inst = config.find("ideal_l2_inst")->asBool();
    options.emissaryTreePlru =
        config.find("emissary_tree_plru")->asBool();
    options.l1iPolicy = config.find("l1i_policy")->asString();
    options.bypassLowPriorityInst =
        config.find("bypass_low_priority_inst")->asBool();
    options.priorityResetInstructions =
        config.find("priority_reset_instructions")->asUint();
    options.sampledSets = static_cast<unsigned>(
        config.find("sampled_sets")->asUint());
    return options;
}

TEST(Golden, MetricsAndCountersMatchFixture)
{
    const stats::JsonValue fixture = loadFixture();
    const stats::JsonValue *cells = fixture.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->size(), 24u);

    for (std::size_t i = 0; i < cells->size(); ++i) {
        const stats::JsonValue &cell = cells->at(i);
        const std::string benchmark = cell.find("benchmark")->asString();
        const std::string policy = cell.find("policy")->asString();
        const std::string name = benchmark + " x " + policy;

        const RunOptions options = optionsFrom(*cell.find("config"));
        ASSERT_TRUE(runOptionsJson(options) == *cell.find("config"))
            << name;

        const trace::SyntheticProgram program(
            trace::profileByName(benchmark));
        trace::SyntheticExecutor executor(program);
        RunPlan plan;
        plan.l2Specs = {replacement::PolicySpec::parse(policy)};
        plan.l1iSpec = replacement::PolicySpec::parse(options.l1iPolicy);
        plan.options = options;
        RunObservers observers;
        const Metrics metrics =
            execute(executor, plan, &observers).front();

        const stats::JsonValue fresh_metrics = metrics.toJson();
        const stats::JsonValue fresh_counters =
            registryJson(observers.registry);
        EXPECT_TRUE(fresh_metrics == *cell.find("metrics"))
            << name << "\n  now:    " << fresh_metrics.dump()
            << "\n  golden: " << cell.find("metrics")->dump();
        EXPECT_TRUE(fresh_counters == *cell.find("counters"))
            << name << "\n  now:    " << fresh_counters.dump()
            << "\n  golden: " << cell.find("counters")->dump();
    }
}

} // namespace
} // namespace emissary::core
