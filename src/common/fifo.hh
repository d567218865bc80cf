/**
 * @file
 * A FIFO queue on one vector.
 *
 * std::deque allocates a map and a first node even when it is empty,
 * and then a node every few hundred bytes of elements as it cycles. A
 * Fifo keeps its elements in one std::vector behind a head index:
 * pop_front() advances the head, and once the popped prefix is half the
 * vector it is erased. The storage is reused, holds at most twice the
 * longest queue, and a queue that stays below its high-water mark
 * allocates nothing.
 */

#ifndef SDPCM_COMMON_FIFO_HH
#define SDPCM_COMMON_FIFO_HH

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace sdpcm {

/** A FIFO queue with the std::deque operations the simulator uses. */
template <typename T>
class Fifo
{
  public:
    bool empty() const { return head_ == items_.size(); }
    std::size_t size() const { return items_.size() - head_; }

    T& front() { return items_[head_]; }
    const T& front() const { return items_[head_]; }
    T& operator[](std::size_t i) { return items_[head_ + i]; }
    const T& operator[](std::size_t i) const { return items_[head_ + i]; }

    auto begin() { return items_.begin() + offset(); }
    auto end() { return items_.end(); }
    auto begin() const { return items_.begin() + offset(); }
    auto end() const { return items_.end(); }
    auto rbegin() const { return std::make_reverse_iterator(end()); }
    auto rend() const { return std::make_reverse_iterator(begin()); }

    void push_back(T item) { items_.push_back(std::move(item)); }

    /** Put `item` at the front (a cancelled write re-queues there). */
    void
    push_front(T item)
    {
        if (head_ > 0)
            items_[--head_] = std::move(item);
        else
            items_.insert(items_.begin(), std::move(item));
    }

    void
    pop_front()
    {
        SDPCM_ASSERT(!empty(), "pop_front on an empty Fifo");
        head_ += 1;
        if (2 * head_ >= items_.size()) {
            items_.erase(items_.begin(), items_.begin() + offset());
            head_ = 0;
        }
    }

  private:
    std::ptrdiff_t offset() const
    {
        return static_cast<std::ptrdiff_t>(head_);
    }

    std::vector<T> items_;
    std::size_t head_ = 0;
};

} // namespace sdpcm

#endif // SDPCM_COMMON_FIFO_HH
