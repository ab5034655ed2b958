/**
 * @file
 * Tests for the EMISSARY P(N) replacement policy: Algorithm 1
 * semantics, priority persistence, the dual-tree TPLRU variant, the
 * §6 reset, and a randomized property test of the protection
 * invariants for both LRU bases.
 */

#include <gtest/gtest.h>

#include <vector>

#include "replacement/emissary.hh"
#include "util/rng.hh"

namespace emissary::replacement
{
namespace
{

LineInfo
info(bool high)
{
    LineInfo li;
    li.isInstruction = true;
    li.highPriority = high;
    return li;
}

class EmissaryBase : public ::testing::TestWithParam<bool>
{
  protected:
    EmissaryPolicy
    make(unsigned sets, unsigned ways, unsigned n)
    {
        return EmissaryPolicy(sets, ways, n, GetParam(), "P(N):test");
    }
};

TEST_P(EmissaryBase, VictimComesFromLowClassWhenUnderLimit)
{
    auto policy = make(1, 8, 4);
    // Ways 0..2 high-priority, 3..7 low.
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(w < 3));
    EXPECT_EQ(policy.protectedCount(0), 3u);
    for (int i = 0; i < 20; ++i) {
        const unsigned v = policy.selectVictim(0);
        EXPECT_GE(v, 3u) << "protected line chosen as victim";
        // Simulate replacement with a low-priority line.
        policy.onInvalidate(0, v);
        policy.onInsert(0, v, info(false));
    }
    EXPECT_EQ(policy.protectedCount(0), 3u);
}

TEST_P(EmissaryBase, VictimComesFromHighClassWhenOverLimit)
{
    auto policy = make(1, 8, 4);
    // Oversubscription can only arise via high-priority insertions
    // (e.g. the L1I-EMISSARY ablation); upgrades are quota-capped.
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(w < 5));
    EXPECT_EQ(policy.protectedCount(0), 5u);
    const unsigned v = policy.selectVictim(0);
    EXPECT_LT(v, 5u)
        << "victim must be one of the high-priority lines";
    policy.onInvalidate(0, v);
    EXPECT_EQ(policy.protectedCount(0), 4u);
}

TEST_P(EmissaryBase, UpgradesRefusedAtQuota)
{
    // Fig. 8's per-set occupancy never exceeds N: once a set protects
    // N lines, further upgrade communications are dropped.
    auto policy = make(1, 8, 2);
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(false));
    EXPECT_TRUE(policy.setPriority(0, 0, true));
    EXPECT_TRUE(policy.setPriority(0, 1, true));
    EXPECT_FALSE(policy.setPriority(0, 2, true));
    EXPECT_EQ(policy.protectedCount(0), 2u);
    EXPECT_FALSE(policy.linePriority(0, 2));
    // Re-raising an already-protected line still succeeds.
    EXPECT_TRUE(policy.setPriority(0, 0, true));
}

TEST_P(EmissaryBase, LruOrderWithinLowClass)
{
    auto policy = make(1, 8, 8);
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(false));
    // Touch everything except way 2.
    for (unsigned w = 0; w < 8; ++w)
        if (w != 2)
            policy.onHit(0, w, info(false));
    if (GetParam()) {
        // Tree PLRU approximates: the guarantee is only that the most
        // recently touched way is never the victim.
        EXPECT_NE(policy.selectVictim(0), 7u);
    } else {
        // True LRU is exact: way 2 is least recently used.
        EXPECT_EQ(policy.selectVictim(0), 2u);
    }
}

TEST_P(EmissaryBase, PriorityIsSticky)
{
    auto policy = make(1, 4, 2);
    policy.onInsert(0, 0, info(true));
    policy.onInsert(0, 1, info(false));
    // setPriority(false) must not demote: priority persists for the
    // line's lifetime (§2).
    policy.setPriority(0, 0, false);
    EXPECT_TRUE(policy.linePriority(0, 0));
    EXPECT_EQ(policy.protectedCount(0), 1u);
    // Upgrades work and are idempotent.
    policy.setPriority(0, 1, true);
    policy.setPriority(0, 1, true);
    EXPECT_EQ(policy.protectedCount(0), 2u);
}

TEST_P(EmissaryBase, InvalidateClearsPriority)
{
    auto policy = make(1, 4, 2);
    policy.onInsert(0, 0, info(true));
    EXPECT_EQ(policy.protectedCount(0), 1u);
    policy.onInvalidate(0, 0);
    EXPECT_EQ(policy.protectedCount(0), 0u);
    EXPECT_FALSE(policy.linePriority(0, 0));
}

TEST_P(EmissaryBase, ResetClearsEverything)
{
    auto policy = make(2, 4, 2);
    policy.onInsert(0, 0, info(true));
    policy.onInsert(1, 3, info(true));
    policy.resetPriorities();
    EXPECT_EQ(policy.protectedCount(0), 0u);
    EXPECT_EQ(policy.protectedCount(1), 0u);
    EXPECT_FALSE(policy.linePriority(1, 3));
}

TEST_P(EmissaryBase, AllHighDegenerateGuard)
{
    // N >= ways: every line can be high-priority; the victim must
    // still be valid.
    auto policy = make(1, 4, 8);
    for (unsigned w = 0; w < 4; ++w)
        policy.onInsert(0, w, info(true));
    const unsigned v = policy.selectVictim(0);
    EXPECT_LT(v, 4u);
}

/**
 * Randomized protection invariant: run a random stream of insert /
 * hit / upgrade events through the policy and verify after every
 * eviction that (a) a low-priority victim is chosen whenever the
 * high-priority population is within N, and (b) protectedCount never
 * decreases except via over-limit eviction or reset.
 */
TEST_P(EmissaryBase, RandomizedProtectionInvariant)
{
    constexpr unsigned kWays = 16;
    constexpr unsigned kN = 8;
    auto policy = make(4, kWays, kN);
    Rng rng(2024);

    std::vector<std::vector<bool>> valid(4,
                                         std::vector<bool>(kWays, false));
    for (unsigned set = 0; set < 4; ++set)
        for (unsigned w = 0; w < kWays; ++w) {
            policy.onInsert(set, w, info(rng.oneIn(4)));
            valid[set][w] = true;
        }

    for (int step = 0; step < 20000; ++step) {
        const unsigned set = static_cast<unsigned>(rng.nextBelow(4));
        const unsigned before = policy.protectedCount(set);
        const auto action = rng.nextBelow(10);
        if (action < 5) {
            // Replacement: evict + insert.
            const unsigned v = policy.selectVictim(set);
            ASSERT_LT(v, kWays);
            const bool victim_high = policy.linePriority(set, v);
            if (before <= kN) {
                // Algorithm 1 line 2: low-priority victim unless the
                // set is entirely high-priority.
                bool any_low = false;
                for (unsigned w = 0; w < kWays; ++w)
                    if (!policy.linePriority(set, w))
                        any_low = true;
                if (any_low) {
                    EXPECT_FALSE(victim_high) << "step " << step;
                }
            } else {
                EXPECT_TRUE(victim_high) << "step " << step;
            }
            policy.onInvalidate(set, v);
            const bool high = rng.oneIn(8);
            policy.onInsert(set, v, info(high));
            const unsigned after = policy.protectedCount(set);
            const unsigned expected = before - (victim_high ? 1 : 0) +
                                      (high ? 1 : 0);
            EXPECT_EQ(after, expected);
        } else if (action < 8) {
            const unsigned w =
                static_cast<unsigned>(rng.nextBelow(kWays));
            policy.onHit(set, w, info(policy.linePriority(set, w)));
            EXPECT_EQ(policy.protectedCount(set), before);
        } else {
            const unsigned w =
                static_cast<unsigned>(rng.nextBelow(kWays));
            const bool was = policy.linePriority(set, w);
            const bool accepted = policy.setPriority(set, w, true);
            if (was) {
                EXPECT_TRUE(accepted);
                EXPECT_EQ(policy.protectedCount(set), before);
            } else if (before >= kN) {
                EXPECT_FALSE(accepted) << "upgrade past quota";
                EXPECT_EQ(policy.protectedCount(set), before);
            } else {
                EXPECT_TRUE(accepted);
                EXPECT_EQ(policy.protectedCount(set), before + 1);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    TrueLruAndTreePlru, EmissaryBase, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool> &info_param) {
        return info_param.param ? "TreePlru" : "TrueLru";
    });

TEST(EmissaryTreePlru, HitUpdatesOnlyOwnClassTree)
{
    // §4.2: a hit on a high-priority line must not disturb the
    // low-priority recency order. With true LRU this is not the case
    // (one global order), so this test pins the dual-tree behaviour.
    EmissaryPolicy policy(1, 8, 4, /*tree_plru=*/true, "P(4):S");
    for (unsigned w = 0; w < 8; ++w)
        policy.onInsert(0, w, info(w >= 6));  // 6,7 high; 0..5 low.

    const unsigned low_victim_before = policy.selectVictim(0);
    ASSERT_LT(low_victim_before, 6u);
    // Hammer the high-priority lines; the low victim is unchanged.
    for (int i = 0; i < 10; ++i) {
        policy.onHit(0, 6, info(true));
        policy.onHit(0, 7, info(true));
    }
    EXPECT_EQ(policy.selectVictim(0), low_victim_before);
}

TEST(EmissaryPolicy, MaxProtectedAccessor)
{
    EmissaryPolicy policy(2, 16, 8, true, "P(8):S&E");
    EXPECT_EQ(policy.maxProtected(), 8u);
    EXPECT_EQ(policy.name(), "P(8):S&E");
}

} // namespace
} // namespace emissary::replacement
