/**
 * @file
 * Tree pseudo-LRU (TPLRU), the baseline policy of the paper's
 * evaluation (Table 4) and the building block of the PLRU-based
 * EMISSARY implementation (§4.2). A tree of ways-1 bits per set
 * records, at each internal node, which half was touched less
 * recently.
 */

#ifndef EMISSARY_REPLACEMENT_TPLRU_HH
#define EMISSARY_REPLACEMENT_TPLRU_HH

#include <cstdint>
#include <vector>

#include "replacement/policy.hh"

namespace emissary::replacement
{

/**
 * A standalone TPLRU tree over @p ways leaves (ways must be a power
 * of two, at most 32). Exposed separately so EMISSARY can keep one
 * tree per priority class per set. The ways-1 node bits live inline
 * (bit n = node n in heap order, set when the right half is the
 * less recently touched one), so a per-set array of trees is one
 * flat allocation.
 */
class PlruTree
{
  public:
    explicit PlruTree(unsigned ways);

    /** Point every node on the path to @p way away from it. */
    void touch(unsigned way);

    /** Follow the tree to the pseudo-LRU leaf. */
    unsigned victim() const;

    /**
     * Follow the tree to the pseudo-LRU leaf among the ways whose
     * bit is set in @p eligible, skipping ineligible subtrees (the
     * "skipping any lines that do not match the priority criteria"
     * rule of §4.2). At least one way must be eligible.
     */
    unsigned victimAmong(std::uint32_t eligible) const;

    unsigned ways() const { return ways_; }

  private:
    std::uint32_t bits_ = 0;
    unsigned ways_;
};

/** Plain TPLRU replacement policy (the TPLRU + FDIP baseline).
 *  Sealed: Cache devirtualizes its per-access notifications. */
class TreePlru final : public ReplacementPolicy
{
  public:
    TreePlru(unsigned num_sets, unsigned num_ways,
             std::string label = "TPLRU");

    std::string name() const override { return label_; }
    unsigned selectVictim(unsigned set) override;
    void onInsert(unsigned set, unsigned way,
                  const LineInfo &info) override;
    void onHit(unsigned set, unsigned way, const LineInfo &info) override;
    void onInvalidate(unsigned set, unsigned way) override;

  private:
    std::string label_;
    std::vector<PlruTree> trees_;
};

} // namespace emissary::replacement

#endif // EMISSARY_REPLACEMENT_TPLRU_HH
