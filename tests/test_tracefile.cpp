/**
 * @file
 * Tests for trace recording: RecordingSource tees the served stream
 * into an EMTC container, and replaying the container reproduces the
 * run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "trace/executor.hh"
#include "trace/program.hh"
#include "workload/emtc.hh"

namespace emissary::trace
{
namespace
{

using workload::PackedTraceSource;
using workload::PackedTraceWriter;
using workload::RecordingSource;

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/emissary_" + tag +
           ".emtc";
}

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p;
    p.name = "file-test";
    p.codeFootprintBytes = 64 * 1024;
    p.transactionTypes = 4;
    p.functionsPerTransaction = 4;
    p.dataFootprintBytes = 1 << 20;
    p.hotDataBytes = 64 * 1024;
    p.seed = 31415;
    return p;
}

TEST(TraceFile, RecordingSourceTees)
{
    const std::string path = tempPath("tee");
    const SyntheticProgram program(tinyProfile());
    SyntheticExecutor executor(program);
    {
        PackedTraceWriter writer(path, "file-test");
        RecordingSource tee(executor, writer);
        for (int i = 0; i < 1000; ++i)
            tee.next();
        writer.finish();
    }
    PackedTraceSource replay(path);
    EXPECT_EQ(replay.recordCount(), 1000u);
    std::remove(path.c_str());
}

TEST(TraceFile, RecordingSourceBulkFillTeesBatches)
{
    const std::string path = tempPath("bulktee");
    const SyntheticProgram program(tinyProfile());

    // Feed through fill() in odd-sized batches; the recorded file
    // must hold exactly the served stream, in order.
    std::vector<TraceRecord> served;
    {
        SyntheticExecutor executor(program);
        PackedTraceWriter writer(path, "file-test");
        RecordingSource tee(executor, writer);
        TraceRecord chunk[257];
        const std::size_t batches[] = {1, 257, 31, 256, 100};
        for (const std::size_t n : batches) {
            tee.fill(chunk, n);
            served.insert(served.end(), chunk, chunk + n);
        }
        writer.finish();
    }

    PackedTraceSource replay(path);
    ASSERT_EQ(replay.recordCount(), served.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
        const TraceRecord got = replay.next();
        ASSERT_EQ(got.pc, served[i].pc) << "record " << i;
        ASSERT_EQ(got.nextPc, served[i].nextPc) << "record " << i;
        ASSERT_EQ(got.memAddr, served[i].memAddr) << "record " << i;
        ASSERT_EQ(got.cls, served[i].cls) << "record " << i;
        ASSERT_EQ(got.taken, served[i].taken) << "record " << i;
    }
    std::remove(path.c_str());
}

TEST(TraceFile, RecordedThenReplayedRunIsBitIdentical)
{
    const std::string path = tempPath("replay_run");
    const SyntheticProgram program(tinyProfile());

    core::RunOptions options;
    options.warmupInstructions = 10'000;
    options.measureInstructions = 40'000;
    const auto l2 = replacement::PolicySpec::parse("P(8):S&E");
    const auto l1i = replacement::PolicySpec::parse("TPLRU");

    // Live run, teeing every served record (the simulator pulls via
    // the batched fill path) to disk.
    core::Metrics live;
    {
        SyntheticExecutor executor(program);
        PackedTraceWriter writer(path, "file-test");
        RecordingSource tee(executor, writer);
        live = core::execute(tee, {{l2}, l1i, options}).front();
        writer.finish();
    }

    // Replaying the recording must reproduce the run bit-exactly.
    PackedTraceSource replay(path);
    core::Metrics replayed =
        core::execute(replay, {{l2}, l1i, options}).front();
    replayed.benchmark = live.benchmark;
    EXPECT_EQ(replayed.toJson().dump(), live.toJson().dump());
    std::remove(path.c_str());
}

TEST(TraceFile, RecordingRunKeepsTheExecutorFootprint)
{
    const std::string path = tempPath("record_footprint");
    const SyntheticProgram program(tinyProfile());

    core::RunPlan plan;
    plan.l2Specs = {replacement::PolicySpec::parse("P(8):S&E")};
    plan.l1iSpec = replacement::PolicySpec::parse("TPLRU");
    plan.options.warmupInstructions = 10'000;
    plan.options.measureInstructions = 40'000;

    SyntheticExecutor bare(program);
    const core::Metrics plain = core::execute(bare, plan).front();

    // Teeing the stream to disk must not change a single metric —
    // the Fig. 4 footprint included, which the tee forwards from the
    // executor it wraps.
    core::Metrics recorded;
    {
        SyntheticExecutor executor(program);
        PackedTraceWriter writer(path, "file-test");
        RecordingSource tee(executor, writer);
        recorded = core::execute(tee, plan).front();
        writer.finish();
    }
    EXPECT_GT(plain.codeFootprintLines, 0u);
    EXPECT_EQ(recorded.toJson().dump(), plain.toJson().dump());
    std::remove(path.c_str());
}

} // namespace
} // namespace emissary::trace
