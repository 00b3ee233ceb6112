#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ds::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

std::uint64_t EventQueue::push(util::SimTime t, Callback action) {
  const std::uint64_t seq = next_seq_++;
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_.empty()) {
    slots_.push_back(std::move(action));
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(action);
  }
  const Key entry{t, seq, slot};
  // Hole-based sift-up: slide later parents down into the hole and place
  // the new key once at its final position.
  std::size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
  return seq;
}

Event EventQueue::pop() {
  const Key top = heap_.front();
  const Key tail = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Hole-based sift-down from the root: pull the smallest child up into
    // the hole until the displaced tail key fits, then place it once.
    std::size_t i = 0;
    while (true) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t child = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (before(heap_[c], heap_[child])) child = c;
      if (!before(heap_[child], tail)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = tail;
  }
  free_.push_back(top.slot);
  return Event{top.time, top.seq, std::move(slots_[top.slot])};
}

util::SimTime EventQueue::next_time() const noexcept {
  return heap_.empty() ? util::kTimeInfinity : heap_.front().time;
}

}  // namespace ds::sim
