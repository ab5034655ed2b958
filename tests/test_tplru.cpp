/**
 * @file
 * Tests for the Tree-PLRU building block and policy.
 */

#include <gtest/gtest.h>

#include <set>

#include "replacement/tplru.hh"

namespace emissary::replacement
{
namespace
{

TEST(PlruTree, RejectsBadWays)
{
    EXPECT_THROW(PlruTree(3), std::invalid_argument);
    EXPECT_THROW(PlruTree(0), std::invalid_argument);
    EXPECT_THROW(PlruTree(1), std::invalid_argument);
    EXPECT_THROW(PlruTree(64), std::invalid_argument);
}

TEST(PlruTree, TouchedWayIsNotVictim)
{
    PlruTree tree(8);
    for (unsigned w = 0; w < 8; ++w) {
        tree.touch(w);
        EXPECT_NE(tree.victim(), w);
    }
}

TEST(PlruTree, RoundRobinSweepTouchesAll)
{
    // Touching ways in victim order cycles through every way: no way
    // is starved by the tree approximation. 32 ways fills all 31
    // inline node bits.
    for (const unsigned ways : {16u, 32u}) {
        PlruTree tree(ways);
        std::set<unsigned> seen;
        for (unsigned i = 0; i < ways; ++i) {
            const unsigned v = tree.victim();
            seen.insert(v);
            tree.touch(v);
        }
        EXPECT_EQ(seen.size(), ways);
    }
}

TEST(PlruTree, VictimAmongRespectsEligibility)
{
    PlruTree tree(8);
    for (unsigned w = 0; w < 8; ++w)
        tree.touch(w);
    // Only odd ways eligible.
    const unsigned v = tree.victimAmong(0xAAu);
    EXPECT_EQ(v % 2, 1u);

    // Single eligible way is always chosen, wherever the bits point,
    // up to the top way of a 32-way tree.
    for (unsigned only = 0; only < 8; ++only) {
        const unsigned chosen = tree.victimAmong(1u << only);
        EXPECT_EQ(chosen, only);
    }
    PlruTree wide(32);
    for (unsigned only = 0; only < 32; ++only) {
        EXPECT_EQ(wide.victimAmong(1u << only), only);
        wide.touch(only);
    }
}

TEST(PlruTree, VictimAmongMatchesVictimWhenAllEligible)
{
    PlruTree tree(16);
    tree.touch(3);
    tree.touch(9);
    tree.touch(14);
    EXPECT_EQ(tree.victimAmong(0xFFFFu), tree.victim());
}

TEST(TreePlru, BehavesLikeLruOnSequentialFill)
{
    TreePlru plru(1, 8);
    LineInfo li;
    for (unsigned w = 0; w < 8; ++w)
        plru.onInsert(0, w, li);
    // After inserting 0..7 in order, way 0 is the pseudo-LRU victim.
    EXPECT_EQ(plru.selectVictim(0), 0u);
}

TEST(TreePlru, HitProtects)
{
    TreePlru plru(1, 8);
    LineInfo li;
    for (unsigned w = 0; w < 8; ++w)
        plru.onInsert(0, w, li);
    plru.onHit(0, 0, li);
    EXPECT_NE(plru.selectVictim(0), 0u);
}

TEST(TreePlru, Name)
{
    TreePlru plru(4, 4);
    EXPECT_EQ(plru.name(), "TPLRU");
}

} // namespace
} // namespace emissary::replacement
