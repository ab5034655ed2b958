/**
 * @file
 * The EMISSARY P(N) replacement policy (paper §4.2, Algorithm 1).
 *
 * Each line carries a sticky priority bit P. On eviction:
 *
 *   if (number of P=1 lines in the set <= N)
 *       evict the LRU among the P=0 lines
 *   else
 *       evict the LRU among the P=1 lines
 *
 * so up to N MRU high-priority lines per set are protected from
 * eviction by low-priority insertions, for their entire lifetime in
 * the cache — the paper's "persistent bimodality". The LRU ordering
 * inside each priority class comes either from true LRU stamps (used
 * by the §2 overview experiments) or from two Tree-PLRU trees per
 * set, one per priority class (used by the paper's evaluation).
 */

#ifndef EMISSARY_REPLACEMENT_EMISSARY_HH
#define EMISSARY_REPLACEMENT_EMISSARY_HH

#include <cstdint>
#include <vector>

#include "replacement/policy.hh"
#include "replacement/tplru.hh"

namespace emissary::replacement
{

/** EMISSARY bimodal treatment P(N).
 *  Sealed: Cache devirtualizes its per-access notifications. */
class EmissaryPolicy final : public ReplacementPolicy
{
  public:
    /**
     * @param num_sets Number of sets.
     * @param num_ways Associativity.
     * @param max_protected The N of P(N): protect up to N MRU
     *        high-priority lines per set.
     * @param tree_plru Use the dual-tree TPLRU implementation (the
     *        evaluation configuration); false selects true LRU.
     * @param label Report name (e.g. "P(8):S&E&R(1/32)").
     */
    EmissaryPolicy(unsigned num_sets, unsigned num_ways,
                   unsigned max_protected, bool tree_plru,
                   std::string label);

    std::string name() const override { return label_; }
    unsigned selectVictim(unsigned set) override;
    void onInsert(unsigned set, unsigned way,
                  const LineInfo &info) override;
    void onHit(unsigned set, unsigned way, const LineInfo &info) override;
    void onInvalidate(unsigned set, unsigned way) override;
    bool setPriority(unsigned set, unsigned way, bool high) override;
    unsigned protectedCount(unsigned set) const override;
    void resetPriorities() override;

    /** The N parameter of P(N). */
    unsigned maxProtected() const { return maxProtected_; }

    /** Priority bit of a resident line (testing/inspection). */
    bool linePriority(unsigned set, unsigned way) const;

    /**
     * Per-set P=1 line counts, maintained incrementally on
     * insert/invalidate/upgrade. The interval sampler's Fig. 8
     * occupancy probe reads this directly (O(sets)) instead of
     * scanning every line in the array.
     */
    const std::vector<std::uint16_t> &
    protectedCounts() const
    {
        return highCount_;
    }

  private:
    unsigned victimTrueLru(unsigned set, bool among_high) const;
    unsigned victimTree(unsigned set, bool among_high);

    std::string label_;
    unsigned maxProtected_;
    bool treePlru_;

    /** Per-set priority bits, bit w = way w (policy-side copy, kept
     *  in sync with the cache's line state via onInsert/setPriority):
     *  at most 64 ways. */
    std::vector<std::uint64_t> highMask_;
    /** Cached count of P=1 lines per set. */
    std::vector<std::uint16_t> highCount_;

    // True-LRU implementation state.
    std::vector<std::int64_t> stamps_;
    std::int64_t clock_ = 0;

    // Dual-tree TPLRU implementation state (one pair per set).
    std::vector<PlruTree> lowTrees_;
    std::vector<PlruTree> highTrees_;
};

} // namespace emissary::replacement

#endif // EMISSARY_REPLACEMENT_EMISSARY_HH
