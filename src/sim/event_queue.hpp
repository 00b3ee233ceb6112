// Deterministic event queue: a 4-ary min-heap ordered by (time, sequence).
//
// The sequence number makes the ordering a total order — two events at the
// same virtual instant fire in the order they were scheduled, on every
// platform, every run. std::priority_queue is avoided because its top() is
// const and would force copying the callback payloads out.
//
// Hot-path notes: the heap holds only 24-byte keys {time, seq, slot}; each
// event's Callback sits in a slot array (recycled through a free list) and
// is relocated exactly twice — into its slot on push, out of it on pop —
// however deep the heap is. Sifts are hole-based: the displaced key is held
// in a local while parents/children shift into the hole, one key move per
// level. Four children per node halve the depth of a binary heap.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "util/time.hpp"

namespace ds::sim {

struct Event {
  util::SimTime time = 0;
  std::uint64_t seq = 0;
  Callback action;
};

class EventQueue {
 public:
  /// Schedule `action` at absolute time `t`. Returns the event sequence id.
  std::uint64_t push(util::SimTime t, Callback action);

  /// Remove and return the earliest event. Requires !empty().
  [[nodiscard]] Event pop();

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] util::SimTime next_time() const noexcept;

 private:
  struct Key {
    util::SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_
  };

  [[nodiscard]] static bool before(const Key& a, const Key& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  std::vector<Key> heap_;
  std::vector<Callback> slots_;      // pending actions, by Key::slot
  std::vector<std::uint32_t> free_;  // slots_ entries not in the heap
  std::uint64_t next_seq_ = 0;
};

}  // namespace ds::sim
