// The simulator's hot-path queue: a FIFO over a power-of-two array.
//
// The pipeline's queues (IDQ, ROB, per-class ready queues, the store drain
// and the front-end's decoded-uop buffer) push at the back and pop at the
// front every cycle; the ROB also squashes from the back and is indexed by
// age. A std::deque pays a block lookup per access and an allocation per
// block; this ring pays a mask. It starts at the queue's natural capacity
// and doubles when full, so a bound the pipeline does not enforce (ready
// queues keep squashed entries until they reach the head) costs a copy,
// never an overwrite.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

namespace spire::sim {

template <class T>
class Ring {
 public:
  explicit Ring(std::size_t capacity = 16)
      : slots_(std::bit_ceil(std::max<std::size_t>(capacity, 1))),
        mask_(slots_.size() - 1) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// `i`-th element from the front (0 = oldest). Requires i < size().
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask_];
  }
  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask_] = value;
    ++size_;
  }
  /// Appends a default element and returns it to be filled in place. A
  /// record built field by field in a local and then copied in is read
  /// back with wide loads while its narrow stores are still in flight,
  /// which stalls the copy (store-to-load forwarding fails).
  T& emplace_back() {
    if (size_ == slots_.size()) grow();
    T& slot = slots_[(head_ + size_) & mask_];
    slot = T{};
    ++size_;
    return slot;
  }
  /// Both pops require !empty().
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  void pop_back() { --size_; }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    slots_.swap(next);
    mask_ = slots_.size() - 1;
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace spire::sim
