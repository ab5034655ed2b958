#include "replacement/tplru.hh"

#include <stdexcept>

#include "util/bitutil.hh"

namespace emissary::replacement
{

PlruTree::PlruTree(unsigned ways) : ways_(ways)
{
    if (!isPowerOfTwo(ways) || ways < 2 || ways > 32)
        throw std::invalid_argument("PlruTree: ways must be a power of "
                                    "two in [2, 32]");
}

// The walks below go root to leaf. A node covering 2 * half ways
// splits them into a lower and an upper half; node n is bit n of
// bits_, and its children are nodes 2n + 1 and 2n + 2.

void
PlruTree::touch(unsigned way)
{
    unsigned node = 0;
    for (unsigned half = ways_ / 2; half > 0; half /= 2) {
        if (way & half) {
            // Touched right half: point the node left.
            bits_ &= ~(std::uint32_t{1} << node);
            node = 2 * node + 2;
        } else {
            bits_ |= std::uint32_t{1} << node;
            node = 2 * node + 1;
        }
    }
}

unsigned
PlruTree::victim() const
{
    unsigned node = 0;
    unsigned way = 0;
    for (unsigned half = ways_ / 2; half > 0; half /= 2) {
        if ((bits_ >> node) & 1) {
            way += half;
            node = 2 * node + 2;
        } else {
            node = 2 * node + 1;
        }
    }
    return way;
}

unsigned
PlruTree::victimAmong(std::uint32_t eligible) const
{
    unsigned node = 0;
    unsigned way = 0;
    for (unsigned half = ways_ / 2; half > 0; half /= 2) {
        // half <= 16, so neither shift below reaches 32.
        const std::uint32_t span = (std::uint32_t{1} << half) - 1;
        const bool left_ok = ((eligible >> way) & span) != 0;
        const bool right_ok = ((eligible >> (way + half)) & span) != 0;
        bool go_right = ((bits_ >> node) & 1) != 0;
        if (go_right && !right_ok)
            go_right = false;
        else if (!go_right && !left_ok)
            go_right = true;
        if (go_right) {
            way += half;
            node = 2 * node + 2;
        } else {
            node = 2 * node + 1;
        }
    }
    return way;
}

TreePlru::TreePlru(unsigned num_sets, unsigned num_ways,
                   std::string label)
    : ReplacementPolicy(num_sets, num_ways), label_(std::move(label))
{
    trees_.assign(num_sets, PlruTree(num_ways));
}

unsigned
TreePlru::selectVictim(unsigned set)
{
    return trees_[set].victim();
}

void
TreePlru::onInsert(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    trees_[set].touch(way);
}

void
TreePlru::onHit(unsigned set, unsigned way, const LineInfo &info)
{
    (void)info;
    trees_[set].touch(way);
}

void
TreePlru::onInvalidate(unsigned set, unsigned way)
{
    (void)set;
    (void)way;
    // Invalid ways are re-filled before the tree is consulted again
    // (the cache prefers invalid ways), so no state change is needed.
}

} // namespace emissary::replacement
