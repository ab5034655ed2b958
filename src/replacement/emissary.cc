#include "replacement/emissary.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace emissary::replacement
{

EmissaryPolicy::EmissaryPolicy(unsigned num_sets, unsigned num_ways,
                               unsigned max_protected, bool tree_plru,
                               std::string label)
    : ReplacementPolicy(num_sets, num_ways),
      label_(std::move(label)),
      maxProtected_(max_protected),
      treePlru_(tree_plru)
{
    if (num_ways > 64)
        throw std::invalid_argument("EmissaryPolicy: at most 64 ways");
    highMask_.assign(num_sets, 0);
    highCount_.assign(num_sets, 0);
    if (treePlru_) {
        lowTrees_.assign(num_sets, PlruTree(num_ways));
        highTrees_.assign(num_sets, PlruTree(num_ways));
    } else {
        stamps_.assign(std::size_t{num_sets} * num_ways,
                       std::numeric_limits<std::int64_t>::min() / 2);
    }
}

bool
EmissaryPolicy::linePriority(unsigned set, unsigned way) const
{
    return ((highMask_[set] >> way) & 1) != 0;
}

unsigned
EmissaryPolicy::protectedCount(unsigned set) const
{
    return highCount_[set];
}

unsigned
EmissaryPolicy::victimTrueLru(unsigned set, bool among_high) const
{
    unsigned victim = ways_;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (unsigned w = 0; w < ways_; ++w) {
        if (linePriority(set, w) != among_high)
            continue;
        const std::int64_t s = stamps_[std::size_t{set} * ways_ + w];
        if (s < best) {
            best = s;
            victim = w;
        }
    }
    assert(victim < ways_ && "no line in requested priority class");
    return victim;
}

unsigned
EmissaryPolicy::victimTree(unsigned set, bool among_high)
{
    // Tree mode has at most 32 ways (PlruTree), so the class's
    // mask fits the tree's 32-bit eligibility argument.
    const std::uint32_t high = static_cast<std::uint32_t>(highMask_[set]);
    if (among_high)
        return highTrees_[set].victimAmong(high);
    return lowTrees_[set].victimAmong(~high);
}

unsigned
EmissaryPolicy::selectVictim(unsigned set)
{
    // Algorithm 1: protect up to N high-priority lines. When the set
    // holds no more than N high-priority lines, the victim comes from
    // the low-priority class; otherwise from the high-priority class.
    const unsigned high = highCount_[set];
    bool among_high = high > maxProtected_;
    if (!among_high && high == ways_) {
        // Degenerate guard: every line is high-priority (only
        // possible when N >= ways); fall back to the high class.
        among_high = true;
    }
    if (treePlru_)
        return victimTree(set, among_high);
    return victimTrueLru(set, among_high);
}

void
EmissaryPolicy::onInsert(unsigned set, unsigned way,
                         const LineInfo &info)
{
    assert(!linePriority(set, way) &&
           "cache must invalidate a way before re-filling it");
    const bool high = info.highPriority;
    if (high) {
        highMask_[set] |= std::uint64_t{1} << way;
        ++highCount_[set];
    }

    if (treePlru_) {
        (high ? highTrees_[set] : lowTrees_[set]).touch(way);
    } else {
        stamps_[std::size_t{set} * ways_ + way] = ++clock_;
    }
}

void
EmissaryPolicy::onHit(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    // Only the tree matching the line's priority class is updated
    // (§4.2): a hit on a high-priority line must not disturb the
    // low-priority recency order, and vice versa.
    if (treePlru_) {
        (linePriority(set, way) ? highTrees_[set] : lowTrees_[set])
            .touch(way);
    } else {
        stamps_[std::size_t{set} * ways_ + way] = ++clock_;
    }
}

void
EmissaryPolicy::onInvalidate(unsigned set, unsigned way)
{
    if (linePriority(set, way)) {
        assert(highCount_[set] > 0);
        --highCount_[set];
        highMask_[set] &= ~(std::uint64_t{1} << way);
    }
    if (!treePlru_) {
        stamps_[std::size_t{set} * ways_ + way] =
            std::numeric_limits<std::int64_t>::min() / 2;
    }
}

bool
EmissaryPolicy::setPriority(unsigned set, unsigned way, bool high)
{
    if (linePriority(set, way) == high)
        return true;
    // Priority is sticky for a line's lifetime: it can be raised (an
    // L1I eviction communicating starvation history) but is only
    // cleared by invalidation or the global reset. Upgrades are
    // refused once the set already protects N lines: the protected
    // population per set never exceeds N (Fig. 8 shows occupancies
    // of 0..N only), which also keeps an oversubscribed set from
    // churning its own protected lines.
    if (high) {
        if (highCount_[set] >= maxProtected_)
            return false;
        highMask_[set] |= std::uint64_t{1} << way;
        ++highCount_[set];
        if (treePlru_) {
            // The line now belongs to the high-priority class; mark
            // it most-recently-used there so it is not immediately
            // chosen when the class overflows.
            highTrees_[set].touch(way);
        }
    }
    return true;
}

void
EmissaryPolicy::resetPriorities()
{
    std::fill(highMask_.begin(), highMask_.end(), 0);
    std::fill(highCount_.begin(), highCount_.end(), 0);
}

} // namespace emissary::replacement
