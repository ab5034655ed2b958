/**
 * @file
 * Tests for the back-end model: dispatch width, window capacity,
 * stall classification, the issue-queue-empty signal, starvation
 * accounting, load-latency propagation, and the completion wheel's
 * edge cases under cycle-by-cycle and event-driven stepping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "backend/backend.hh"

namespace emissary::backend
{
namespace
{

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

core::DynInst
alu(std::uint64_t seq)
{
    core::DynInst inst;
    inst.seq = seq;
    inst.rec.pc = 0x1000 + 4 * seq;
    inst.rec.cls = trace::InstClass::IntAlu;
    return inst;
}

core::DynInst
load(std::uint64_t seq, std::uint64_t addr)
{
    core::DynInst inst = alu(seq);
    inst.rec.cls = trace::InstClass::Load;
    inst.rec.memAddr = addr;
    return inst;
}

struct Rig
{
    explicit Rig(const Backend::Config &backend_config = config())
        : hierarchy(hierConfig()), backend(backend_config, hierarchy)
    {
    }

    static Backend::Config
    config()
    {
        Backend::Config c;
        c.depFraction = 0.0;  // Deterministic for unit tests.
        c.loadChainFraction = 0.0;
        return c;
    }

    void
    cycle(std::uint64_t now,
          std::optional<std::uint64_t> pending = std::nullopt)
    {
        hierarchy.tick(now);
        backend.executeStage(now);
        backend.commitStage(now);
        backend.issueStage(now, queue, pending);
    }

    cache::Hierarchy hierarchy;
    Backend backend;
    std::deque<core::DynInst> queue;
};

TEST(Backend, DispatchBoundedByWidth)
{
    Rig rig;
    for (std::uint64_t s = 1; s <= 20; ++s)
        rig.queue.push_back(alu(s));
    rig.cycle(0);
    EXPECT_EQ(rig.backend.stats().issued, 8u);
    EXPECT_EQ(rig.queue.size(), 12u);
}

TEST(Backend, AluInstructionsCommitQuickly)
{
    Rig rig;
    for (std::uint64_t s = 1; s <= 8; ++s)
        rig.queue.push_back(alu(s));
    for (std::uint64_t now = 0; now < 5; ++now)
        rig.cycle(now);
    EXPECT_EQ(rig.backend.stats().committed, 8u);
    EXPECT_TRUE(rig.backend.robEmpty());
}

TEST(Backend, LoadLatencyGatesCommit)
{
    Rig rig;
    rig.queue.push_back(load(1, 0x100000));  // Cold miss: ~246 cycles.
    rig.queue.push_back(alu(2));
    for (std::uint64_t now = 0; now < 100; ++now)
        rig.cycle(now);
    // In-order commit: nothing retires while the load is in flight.
    EXPECT_EQ(rig.backend.stats().committed, 0u);
    EXPECT_GT(rig.backend.stats().beStallCycles, 50u);
    for (std::uint64_t now = 100; now < 400; ++now)
        rig.cycle(now);
    EXPECT_EQ(rig.backend.stats().committed, 2u);
}

TEST(Backend, StallClassification)
{
    Rig rig;
    // Empty machine: FE stalls.
    for (std::uint64_t now = 0; now < 10; ++now)
        rig.cycle(now);
    EXPECT_EQ(rig.backend.stats().feStallCycles, 10u);
    EXPECT_EQ(rig.backend.stats().beStallCycles, 0u);
}

TEST(Backend, IssueQueueEmptySignal)
{
    Rig rig;
    EXPECT_TRUE(rig.backend.issueQueueEmpty());
    rig.queue.push_back(load(1, 0x100000));
    rig.cycle(0);
    EXPECT_FALSE(rig.backend.issueQueueEmpty());
    for (std::uint64_t now = 1; now < 400; ++now)
        rig.cycle(now);
    EXPECT_TRUE(rig.backend.issueQueueEmpty());
}

TEST(Backend, StarvationAccountingWithPendingLine)
{
    Rig rig;
    // Empty queue + a named pending line: starvation accrues and is
    // reported to the hierarchy's MSHR (if one exists).
    rig.hierarchy.requestInstruction(0x40, 0,
                                     cache::RequestKind::Demand);
    for (std::uint64_t now = 0; now < 20; ++now)
        rig.cycle(now, 0x40);
    EXPECT_EQ(rig.backend.stats().starvationCycles, 20u);
    EXPECT_EQ(rig.backend.stats().starvationIqEmptyCycles, 20u);
}

TEST(Backend, StarvationNotCountedWithoutPendingLine)
{
    Rig rig;
    for (std::uint64_t now = 0; now < 20; ++now)
        rig.cycle(now, std::nullopt);
    EXPECT_EQ(rig.backend.stats().starvationCycles, 0u);
    EXPECT_EQ(rig.backend.stats().resteerEmptyCycles, 20u);
}

TEST(Backend, StarvationRequiresBackendAcceptance)
{
    // Fill the ROB with long-latency loads so dispatch stalls; decode
    // cannot starve while it is blocked (§3: "a stalled decode
    // cannot starve").
    Rig rig;
    Backend::Config small = Rig::config();
    small.robEntries = 8;
    Backend backend(small, rig.hierarchy);
    std::deque<core::DynInst> queue;
    for (std::uint64_t s = 1; s <= 8; ++s)
        queue.push_back(load(s, 0x100000 + 64 * 100 * s));
    backend.issueStage(0, queue, std::nullopt);
    ASSERT_FALSE(backend.canAccept());
    backend.issueStage(1, queue, std::optional<std::uint64_t>(0x40));
    EXPECT_EQ(backend.stats().starvationCycles, 0u);
}

TEST(Backend, MispredictResolutionCallback)
{
    Rig rig;
    std::uint64_t resolved_seq = 0;
    std::uint64_t resolved_cycle = 0;
    rig.backend.setResolveCallback(
        [&](std::uint64_t seq, std::uint64_t cycle) {
            resolved_seq = seq;
            resolved_cycle = cycle;
        });
    core::DynInst branch = alu(1);
    branch.rec.cls = trace::InstClass::CondBranch;
    branch.mispredicted = true;
    rig.queue.push_back(branch);
    for (std::uint64_t now = 0; now < 10; ++now)
        rig.cycle(now);
    EXPECT_EQ(resolved_seq, 1u);
    EXPECT_GT(resolved_cycle, 0u);
}

TEST(Backend, StoreQueueDrainsAtCommit)
{
    Rig rig;
    core::DynInst st = alu(1);
    st.rec.cls = trace::InstClass::Store;
    st.rec.memAddr = 0x2000;
    rig.queue.push_back(st);
    for (std::uint64_t now = 0; now < 10; ++now)
        rig.cycle(now);
    EXPECT_EQ(rig.backend.stats().committed, 1u);
    EXPECT_EQ(rig.backend.stats().stores, 1u);
}

TEST(Backend, DependenceChainsSlowConsumers)
{
    // With depFraction = 1 every instruction waits on a predecessor,
    // so a long-latency load delays the chain behind it.
    Backend::Config chained = Rig::config();
    chained.depFraction = 1.0;
    chained.depWindow = 1;
    cache::Hierarchy hierarchy(hierConfig());
    Backend backend(chained, hierarchy);
    std::deque<core::DynInst> queue;
    queue.push_back(load(1, 0x100000));
    for (std::uint64_t s = 2; s <= 6; ++s)
        queue.push_back(alu(s));
    std::uint64_t now = 0;
    for (; now < 1000 && backend.stats().committed < 6; ++now) {
        hierarchy.tick(now);
        backend.executeStage(now);
        backend.commitStage(now);
        backend.issueStage(now, queue, std::nullopt);
    }
    // The chain completes well after the bare load latency (~246).
    EXPECT_GT(now, 246u);
    EXPECT_EQ(backend.stats().committed, 6u);
}

TEST(Backend, LoadChainBeyondWheelHorizonWithMispredict)
{
    // A mispredicted branch, then eight loads to distinct cold lines
    // that each chase the previous one: every load pays a full DRAM
    // miss after its predecessor's, so the chain completes at 8
    // misses (~2000 cycles), well past the completion wheel's
    // 1024-cycle horizon. The branch resolves while it is in flight,
    // and the 8-entry LQ is full from cycle 1 until the first load
    // returns. Cycle-by-cycle and event-driven stepping (idle spans
    // accrued in bulk) must agree on every count.
    Backend::Config chained = Rig::config();
    chained.loadChainFraction = 1.0;
    chained.lqEntries = 8;
    const cache::Hierarchy::Config hier = hierConfig();
    const std::uint64_t miss = hier.l1d.hitLatency +
                               hier.l2.hitLatency +
                               hier.l3.hitLatency + hier.dramLatency;
    constexpr std::uint64_t kEnd = 2500;

    std::vector<std::uint64_t> expected_commits = {
        chained.branchLatency};
    for (std::uint64_t k = 1; k <= 8; ++k)
        expected_commits.push_back(k * miss);

    BackendStats stats[2];
    for (const bool event_driven : {false, true}) {
        Rig rig(chained);
        std::uint64_t resolved_seq = 0;
        std::uint64_t resolved_cycle = 0;
        rig.backend.setResolveCallback(
            [&](std::uint64_t seq, std::uint64_t cycle) {
                resolved_seq = seq;
                resolved_cycle = cycle;
            });
        core::DynInst branch = alu(1);
        branch.rec.cls = trace::InstClass::CondBranch;
        branch.mispredicted = true;
        rig.queue.push_back(branch);
        for (std::uint64_t s = 2; s <= 9; ++s)
            rig.queue.push_back(load(s, 0x100000 + 0x10000 * s));

        std::vector<std::uint64_t> commits;
        for (std::uint64_t now = 0; now < kEnd; ++now) {
            if (event_driven) {
                const std::uint64_t next = std::min(
                    {rig.backend.nextEvent(now, rig.queue.empty()),
                     rig.hierarchy.nextCompletion(), kEnd});
                rig.backend.accrueIdleCycles(next - now,
                                             rig.queue.empty(),
                                             std::nullopt);
                now = next;
                if (now == kEnd)
                    break;
            }
            const std::uint64_t before = rig.backend.stats().committed;
            rig.cycle(now);
            commits.insert(commits.end(),
                           rig.backend.stats().committed - before, now);
            EXPECT_EQ(rig.backend.issueQueueEmpty(), now >= 8 * miss)
                << "cycle " << now;
            // LQ release: full from the ninth instruction's dispatch
            // until the first load completes.
            EXPECT_EQ(rig.backend.canAccept(), now == 0 || now >= miss)
                << "cycle " << now;
        }
        EXPECT_EQ(commits, expected_commits);
        EXPECT_EQ(resolved_seq, 1u);
        EXPECT_EQ(resolved_cycle, chained.branchLatency);
        EXPECT_TRUE(rig.backend.robEmpty());
        stats[event_driven ? 1 : 0] = rig.backend.stats();
    }
    EXPECT_EQ(stats[0].cycles, kEnd);
    EXPECT_EQ(stats[1].cycles, kEnd);
    EXPECT_EQ(stats[0].committed, stats[1].committed);
    EXPECT_EQ(stats[0].feStallCycles, stats[1].feStallCycles);
    EXPECT_EQ(stats[0].beStallCycles, stats[1].beStallCycles);
    EXPECT_EQ(stats[0].resteerEmptyCycles, stats[1].resteerEmptyCycles);
    EXPECT_EQ(stats[0].decodeActiveCycles, stats[1].decodeActiveCycles);
    EXPECT_EQ(stats[0].issueActiveCycles, stats[1].issueActiveCycles);
    EXPECT_EQ(stats[0].branchesResolved, 1u);
    EXPECT_EQ(stats[1].branchesResolved, 1u);
}

} // namespace
} // namespace emissary::backend
