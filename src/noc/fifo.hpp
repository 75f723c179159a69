// Per-flow packet FIFO: a growable power-of-two ring that owns no heap
// block until its first push. Every registered flow carries one (NIC source
// queues, Dedicated sources), and most flows of a big mesh stay idle for
// long stretches, so an empty queue costs sizeof(RingFifo) and nothing
// else - std::deque would allocate its map and a 512-byte node per flow at
// construction. The block doubles when full (the first one holds
// kFirstBlock entries) and is kept across clear(), so a queue that has
// once held a burst refills without touching the heap.
//
// Supports exactly what the queues need: push_back, push_front (a fault
// retransmission re-queues at the head), pop_front and in-order iteration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/error.hpp"

namespace smartnoc::noc {

template <typename T>
class RingFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Entries the current block holds (0 until the first push).
  std::size_t capacity() const { return cap_; }

  /// The i-th entry from the front (i < size()).
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + static_cast<std::uint32_t>(i)) & (cap_ - 1)];
  }

  const T& front() const {
    SMARTNOC_CHECK(size_ > 0, "front of empty RingFifo");
    return buf_[head_];
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    buf_[(head_ + size_) & (cap_ - 1)] = v;
    ++size_;
  }

  void push_front(const T& v) {
    if (size_ == cap_) grow();
    head_ = (head_ + cap_ - 1) & (cap_ - 1);
    buf_[head_] = v;
    ++size_;
  }

  T pop_front() {
    SMARTNOC_CHECK(size_ > 0, "pop of empty RingFifo");
    const T v = buf_[head_];
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return v;
  }

  /// Empties the queue; the block (if any) stays for the next burst.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  class const_iterator {
   public:
    const_iterator(const RingFifo* q, std::size_t i) : q_(q), i_(i) {}
    const T& operator*() const { return (*q_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const RingFifo* q_;
    std::size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  static constexpr std::uint32_t kFirstBlock = 4;

  /// Doubles the block (or allocates the first), unwrapping the ring so
  /// the front lands at index 0.
  void grow() {
    SMARTNOC_CHECK(cap_ < (1u << 30), "RingFifo capacity overflow");
    const std::uint32_t cap = cap_ == 0 ? kFirstBlock : cap_ * 2;
    auto buf = std::make_unique<T[]>(cap);
    for (std::uint32_t i = 0; i < size_; ++i) buf[i] = (*this)[i];
    buf_ = std::move(buf);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;  ///< 0 or a power of two
};

}  // namespace smartnoc::noc
