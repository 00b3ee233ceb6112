// Deterministic event queue: a monotone radix queue ordered by (time,
// sequence).
//
// The sequence number makes the ordering a total order — two events at the
// same virtual instant fire in the order they were scheduled, on every
// platform, every run.
//
// Buckets. The engine never schedules before now(), so every pending time
// is at or after the last popped time `last`. A pending event lives in
// bucket b = bit_width(time ^ last): the index of the highest bit in which
// its time differs from `last` (65 buckets, 0..64). Bucket 0 holds the
// events of the current instant; every key in bucket b is smaller than every
// key in bucket b+1, so the first occupied bucket (one count-trailing-zeros
// on an occupancy mask) holds the minimum, and each bucket keeps its own
// minimum time. pop() takes the head of bucket 0. When bucket 0 is empty it
// first advances `last` to the minimum of the first occupied bucket b and
// moves that bucket's events into buckets below b; the minimum lands in
// bucket 0. Each move takes an event to a strictly lower bucket, so it moves
// at most 64 times and in practice about twice (2.2 on the 2,048-rank PIC
// reference run), with no per-level comparisons; an event scheduled at the
// current instant (a wake, a zero-delay schedule) costs O(1) both ways.
//
// Tie order. Buckets are FIFO lists, threaded intrusively through the slot
// array. Events with equal times always share a bucket; push appends, and
// redistribution walks a bucket in list order into buckets that are empty
// at that point, so equal-time events keep their push order — exactly the
// (time, seq) order. Bucket 0's head is therefore the next event.
//
// Rebase. A push earlier than the last pop (the Engine never does this, the
// standalone contract allows it) lowers `last` to the new time and re-buckets
// every pending event against it: an O(n) path kept off the hot loop.
//
// Storage: each event's Callback sits in a slot array and is relocated
// exactly twice — into its slot on push, out of it on pop. A parallel array
// of 24-byte nodes {key, seq, next} carries the list links, so
// redistribution never touches the callbacks. Freed slots form a free list
// through the same `next` links.
#pragma once

#include <array>
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

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] util::SimTime next_time() const noexcept;

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr int kBuckets = 65;

  /// Times as order-preserving unsigned keys (the sign bit flipped), so
  /// the bucket index is a plain XOR and bit width.
  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  [[nodiscard]] static constexpr std::uint64_t key_of(
      util::SimTime t) noexcept {
    return static_cast<std::uint64_t>(t) ^ kSignBit;
  }
  [[nodiscard]] static constexpr util::SimTime time_of(
      std::uint64_t key) noexcept {
    return static_cast<util::SimTime>(key ^ kSignBit);
  }

  struct Node {
    std::uint64_t key;
    std::uint64_t seq;
    std::uint32_t next;  // next node in the bucket (or free list), or kNil
  };
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] int bucket_of(std::uint64_t key) const noexcept;
  void append(int bucket, std::uint32_t slot) noexcept;
  /// Append a detached list, in order, each event to its bucket against
  /// the current `last_`.
  void append_all(std::uint32_t head) noexcept;
  void rebase(std::uint64_t key) noexcept;

  std::vector<Node> nodes_;
  std::vector<Callback> actions_;  // pending actions, by slot
  std::array<List, kBuckets> buckets_{};
  std::array<std::uint64_t, kBuckets> min_key_{};  // per occupied bucket >= 1
  std::uint64_t occupied_ = 0;  // bit b-1 set iff bucket b >= 1 is non-empty
  std::uint64_t last_ = key_of(0);  // key of the last popped time
  std::uint32_t free_ = kNil;   // head of the free-slot list
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ds::sim
