/**
 * @file
 * Tests for the decoupled front-end: block formation, FTQ flow into
 * the decode queue, FDIP prefetching, BTB-miss pre-decode stalls,
 * mispredict halt/resume, and starvation-line attribution.
 */

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "frontend/frontend.hh"

namespace emissary::frontend
{
namespace
{

/** Scripted trace source: replays a fixed record sequence forever. */
class ScriptSource : public trace::TraceSource
{
  public:
    explicit ScriptSource(std::vector<trace::TraceRecord> script)
        : script_(std::move(script))
    {
    }

    trace::TraceRecord
    next() override
    {
        const trace::TraceRecord rec = script_[pos_];
        pos_ = (pos_ + 1) % script_.size();
        return rec;
    }

    const char *name() const override { return "script"; }

  private:
    std::vector<trace::TraceRecord> script_;
    std::size_t pos_ = 0;
};

/** A simple loop: 7 ALU ops then a taken branch back. */
std::vector<trace::TraceRecord>
loopScript(std::uint64_t base)
{
    std::vector<trace::TraceRecord> script;
    for (int i = 0; i < 7; ++i) {
        trace::TraceRecord r;
        r.pc = base + 4 * static_cast<std::uint64_t>(i);
        r.nextPc = r.pc + 4;
        r.cls = trace::InstClass::IntAlu;
        script.push_back(r);
    }
    trace::TraceRecord br;
    br.pc = base + 28;
    br.nextPc = base;
    br.cls = trace::InstClass::CondBranch;
    br.taken = true;
    script.push_back(br);
    return script;
}

cache::Hierarchy::Config
hierConfig()
{
    cache::Hierarchy::Config config;
    config.l1i = {"l1i", 32 * 1024, 8, 64, 2,
                  replacement::PolicySpec::parse("TPLRU"), 1};
    config.l1d = {"l1d", 32 * 1024, 8, 64, 2,
                  replacement::PolicySpec::parse("TPLRU"), 2};
    config.l2 = {"l2", 256 * 1024, 16, 64, 12,
                 replacement::PolicySpec::parse("TPLRU"), 3};
    config.l3 = {"l3", 512 * 1024, 16, 64, 32,
                 replacement::PolicySpec::parse("DRRIP"), 4};
    config.nextLinePrefetch = false;
    return config;
}

struct Rig
{
    explicit Rig(std::vector<trace::TraceRecord> script,
                 FrontEnd::Config fe_config = FrontEnd::Config())
        : source(std::move(script)),
          hierarchy(hierConfig()),
          frontend(fe_config, source, hierarchy)
    {
    }

    void
    cycle(std::uint64_t now)
    {
        hierarchy.tick(now);
        frontend.fetch(now, decode_queue);
        frontend.prefetch(now);
        frontend.predict(now);
    }

    ScriptSource source;
    cache::Hierarchy hierarchy;
    FrontEnd frontend;
    std::deque<core::DynInst> decode_queue;
};

TEST(FrontEnd, DeliversInstructionsInProgramOrder)
{
    Rig rig(loopScript(0x10000));
    for (std::uint64_t now = 0; now < 2000; ++now)
        rig.cycle(now);
    ASSERT_GT(rig.decode_queue.size(), 8u);
    std::uint64_t prev_seq = 0;
    std::uint64_t expected_pc = rig.decode_queue.front().rec.pc;
    for (const auto &inst : rig.decode_queue) {
        EXPECT_GT(inst.seq, prev_seq);
        prev_seq = inst.seq;
        EXPECT_EQ(inst.rec.pc, expected_pc);
        expected_pc = inst.rec.nextPc;
    }
}

TEST(FrontEnd, FirstBlockWaitsForColdMiss)
{
    Rig rig(loopScript(0x10000));
    // Cycle a few times: the cold L1I miss (~246 cycles) gates
    // delivery.
    for (std::uint64_t now = 0; now < 20; ++now)
        rig.cycle(now);
    EXPECT_TRUE(rig.decode_queue.empty());
    EXPECT_TRUE(rig.frontend.pendingFetchLine(20).has_value());
    for (std::uint64_t now = 20; now < 400; ++now)
        rig.cycle(now);
    EXPECT_FALSE(rig.decode_queue.empty());
}

TEST(FrontEnd, HotLoopStreamsAtFullWidth)
{
    Rig rig(loopScript(0x10000));
    std::uint64_t now = 0;
    for (; now < 1000; ++now)
        rig.cycle(now);
    // Warm: drain and count deliveries over a window.
    rig.decode_queue.clear();
    std::uint64_t delivered = 0;
    for (; now < 1100; ++now) {
        rig.cycle(now);
        delivered += rig.decode_queue.size();
        rig.decode_queue.clear();
    }
    // 8-instruction blocks at one block per cycle, minus pipeline
    // hiccups: must be close to 8/cycle.
    EXPECT_GT(delivered, 600u);
}

TEST(FrontEnd, BtbMissStallsUntilBytesArrive)
{
    Rig rig(loopScript(0x10000));
    rig.cycle(0);
    // One block was formed against a cold BTB: the BPU must now be
    // stalled (no further blocks) until the line returns.
    const auto blocks_after_first = rig.frontend.stats().blocksFormed;
    EXPECT_EQ(blocks_after_first, 1u);
    for (std::uint64_t now = 1; now < 100; ++now)
        rig.cycle(now);
    EXPECT_EQ(rig.frontend.stats().blocksFormed, 1u)
        << "BPU must wait for pre-decode on a cold block";
    for (std::uint64_t now = 100; now < 400; ++now)
        rig.cycle(now);
    EXPECT_GT(rig.frontend.stats().blocksFormed, 1u);
    EXPECT_GE(rig.frontend.stats().btbMisses, 1u);
}

TEST(FrontEnd, MispredictHaltsUntilResolved)
{
    // Alternating branch at the same PC defeats the cold predictor at
    // least once.
    std::vector<trace::TraceRecord> script;
    for (int rep = 0; rep < 2; ++rep) {
        trace::TraceRecord r;
        r.pc = 0x20000;
        r.cls = trace::InstClass::CondBranch;
        r.taken = (rep == 0);
        r.nextPc = r.taken ? 0x30000 : 0x20004;
        script.push_back(r);
        trace::TraceRecord f;
        f.pc = r.nextPc;
        f.nextPc = 0x20000;
        f.cls = trace::InstClass::DirectJump;
        f.taken = true;
        script.push_back(f);
    }
    Rig rig(std::move(script));

    std::uint64_t now = 0;
    // Run (draining the decode queue so capacity never binds) until
    // the BPU halts on a mispredicted branch.
    for (; now < 30000 && !rig.frontend.haltedBranch(); ++now) {
        rig.cycle(now);
        rig.decode_queue.clear();
    }
    ASSERT_TRUE(rig.frontend.haltedBranch().has_value());
    const std::uint64_t mis_seq = *rig.frontend.haltedBranch();
    const auto blocks = rig.frontend.stats().blocksFormed;
    // Without resolution the BPU stays halted forever.
    for (std::uint64_t i = 0; i < 200; ++i) {
        rig.cycle(now + i);
        rig.decode_queue.clear();
    }
    EXPECT_EQ(rig.frontend.stats().blocksFormed, blocks);

    // Resolve it: the BPU resumes after resteerLatency.
    rig.frontend.onBranchResolved(mis_seq, now + 200);
    for (std::uint64_t i = 200; i < 600; ++i) {
        rig.cycle(now + i);
        rig.decode_queue.clear();
    }
    EXPECT_GT(rig.frontend.stats().blocksFormed, blocks);
}

TEST(FrontEnd, FdipOffDelaysRequestsUntilFetch)
{
    FrontEnd::Config fe;
    fe.fdip = false;
    Rig rig(loopScript(0x10000), fe);
    rig.cycle(0);
    // With FDIP off, the BPU formed a block but no FDIP stats accrue.
    EXPECT_EQ(rig.frontend.stats().fdipRequests, 0u);
}

TEST(FrontEnd, RevisitedLineUsesItsFirstRequest)
{
    // One block whose non-control records run on lines A, B, A: the
    // block keeps a run per visit, and fetch from the second A run is
    // gated by the block's first request for A (already in L1I), not
    // by B's cold fill.
    constexpr std::uint64_t kA = 0x10000;
    constexpr std::uint64_t kB = 0x20000;
    const auto record = [](std::uint64_t pc, std::uint64_t next,
                           trace::InstClass cls) {
        trace::TraceRecord r;
        r.pc = pc;
        r.nextPc = next;
        r.cls = cls;
        r.taken = cls == trace::InstClass::CondBranch;
        return r;
    };
    std::vector<trace::TraceRecord> script = {
        record(kA, kB, trace::InstClass::IntAlu),
        record(kB, kA + 4, trace::InstClass::IntAlu),
        record(kA + 4, kA + 8, trace::InstClass::IntAlu),
        record(kA + 8, kA, trace::InstClass::CondBranch),
    };
    FrontEnd::Config fe;
    fe.fetchWidth = 1;  // One instruction a cycle: every run shows.
    Rig rig(std::move(script), fe);

    // Warm A into the L1I, leave B cold.
    const std::uint64_t line_a = kA >> 6;
    const std::uint64_t line_b = kB >> 6;
    const std::uint64_t warm = rig.hierarchy.requestInstruction(
        line_a, 0, cache::RequestKind::Demand);
    rig.hierarchy.tick(warm);

    // Cycle until the block's four instructions are delivered,
    // noting when each arrived and what fetch waited on before it.
    std::vector<std::uint64_t> delivered_at;
    std::vector<std::optional<std::uint64_t>> pending;
    const std::uint64_t start = warm + 1;
    for (std::uint64_t now = start;
         now < start + 1000 && delivered_at.size() < 4; ++now) {
        pending.push_back(rig.frontend.pendingFetchLine(now));
        rig.cycle(now);
        while (delivered_at.size() < rig.decode_queue.size() &&
               delivered_at.size() < 4)
            delivered_at.push_back(now);
    }
    ASSERT_EQ(delivered_at.size(), 4u);
    const std::uint64_t expected_pcs[] = {kA, kB, kA + 4, kA + 8};
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(rig.decode_queue[i].rec.pc, expected_pcs[i]);

    // A arrives at L1I-hit latency, B only after its cold fill.
    const std::uint64_t first_a = delivered_at[0];
    const std::uint64_t b = delivered_at[1];
    EXPECT_EQ(first_a, start + rig.hierarchy.l1i().config().hitLatency);
    EXPECT_GT(b, first_a + 20);
    for (std::uint64_t now = first_a + 1; now < b; ++now)
        EXPECT_EQ(pending[now - start], line_b) << "cycle " << now;
    // The second A run follows B at once: its line was ready all
    // along, so fetch never blames A again.
    EXPECT_EQ(delivered_at[2], b + 1);
    EXPECT_EQ(delivered_at[3], b + 2);
    for (std::uint64_t now = b; now <= delivered_at[3]; ++now)
        EXPECT_FALSE(pending[now - start].has_value()) << "cycle " << now;
}

} // namespace
} // namespace emissary::frontend
