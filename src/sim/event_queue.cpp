#include "sim/event_queue.hpp"

#include <bit>
#include <utility>

namespace ds::sim {

int EventQueue::bucket_of(std::uint64_t key) const noexcept {
  return std::bit_width(key ^ last_);
}

void EventQueue::append(int bucket, std::uint32_t slot) noexcept {
  List& list = buckets_[static_cast<std::size_t>(bucket)];
  nodes_[slot].next = kNil;
  if (list.tail == kNil) {
    list.head = slot;
  } else {
    nodes_[list.tail].next = slot;
  }
  list.tail = slot;
  if (bucket == 0) return;
  const std::uint64_t bit = std::uint64_t{1} << (bucket - 1);
  std::uint64_t& min_key = min_key_[static_cast<std::size_t>(bucket)];
  const std::uint64_t key = nodes_[slot].key;
  if ((occupied_ & bit) == 0 || key < min_key) min_key = key;
  occupied_ |= bit;
}

void EventQueue::append_all(std::uint32_t head) noexcept {
  while (head != kNil) {
    const std::uint32_t next = nodes_[head].next;
    append(bucket_of(nodes_[head].key), head);
    head = next;
  }
}

void EventQueue::rebase(std::uint64_t key) noexcept {
  // Detach every bucket, then re-append each in list order against the
  // lower `last_`: equal times travel together and keep their order.
  const std::array<List, kBuckets> pending = buckets_;
  buckets_.fill(List{});
  occupied_ = 0;
  last_ = key;
  for (const List& list : pending) append_all(list.head);
}

std::uint64_t EventQueue::push(util::SimTime t, Callback action) {
  const std::uint64_t key = key_of(t);
  if (key < last_) rebase(key);
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot = free_;
  if (slot == kNil) {
    slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{key, seq, kNil});
    actions_.push_back(std::move(action));
  } else {
    free_ = nodes_[slot].next;
    nodes_[slot] = Node{key, seq, kNil};
    actions_[slot] = std::move(action);
  }
  append(bucket_of(key), slot);
  ++size_;
  return seq;
}

Event EventQueue::pop() {
  List& now = buckets_[0];
  if (now.head == kNil) {
    // Advance to the first occupied bucket's minimum and spread that bucket
    // over the (empty) buckets below it; the minimum lands in bucket 0.
    const int bucket = std::countr_zero(occupied_) + 1;
    List& spread = buckets_[static_cast<std::size_t>(bucket)];
    const std::uint32_t head = spread.head;
    spread = List{};
    occupied_ &= occupied_ - 1;
    last_ = min_key_[static_cast<std::size_t>(bucket)];
    append_all(head);
  }
  const std::uint32_t slot = now.head;
  Node& node = nodes_[slot];
  now.head = node.next;
  if (now.head == kNil) now.tail = kNil;
  node.next = free_;
  free_ = slot;
  --size_;
  return Event{time_of(node.key), node.seq, std::move(actions_[slot])};
}

util::SimTime EventQueue::next_time() const noexcept {
  if (buckets_[0].head != kNil) return time_of(last_);
  if (occupied_ == 0) return util::kTimeInfinity;
  const int bucket = std::countr_zero(occupied_) + 1;
  return time_of(min_key_[static_cast<std::size_t>(bucket)]);
}

}  // namespace ds::sim
