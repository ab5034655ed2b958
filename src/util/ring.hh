/**
 * @file
 * A fixed-capacity FIFO over reused slots.
 */

#ifndef EMISSARY_UTIL_RING_HH
#define EMISSARY_UTIL_RING_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace emissary
{

/**
 * Fixed-capacity FIFO whose slots are allocated once. Pushing and
 * popping only move indices, so a popped slot keeps its contents —
 * including any capacity they own — until a later push reuses it.
 */
template <typename T>
class FixedRing
{
  public:
    /** A ring of @p capacity slots (at least one). */
    explicit FixedRing(std::size_t capacity)
        : slots_(std::max<std::size_t>(capacity, 1))
    {
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The @p i-th oldest element. */
    T &
    operator[](std::size_t i)
    {
        return slots_[slot(i)];
    }
    const T &
    operator[](std::size_t i) const
    {
        return slots_[slot(i)];
    }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    /** Append a slot and return it as its last user left it; the
     *  caller resets what it needs. */
    T &
    pushSlot()
    {
        assert(size_ < slots_.size());
        T &slot = (*this)[size_];
        ++size_;
        return slot;
    }

    void push_back(const T &value) { pushSlot() = value; }

    void
    pop_front()
    {
        assert(size_ > 0);
        head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
        --size_;
    }

  private:
    std::size_t
    slot(std::size_t i) const
    {
        const std::size_t k = head_ + i;
        return k < slots_.size() ? k : k - slots_.size();
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace emissary

#endif // EMISSARY_UTIL_RING_HH
