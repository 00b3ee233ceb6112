#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace ds::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakBySchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) q.push(5, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeTracksMinimum) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), util::kTimeInfinity);
  q.push(42, [] {});
  q.push(7, [] {});
  EXPECT_EQ(q.next_time(), 7);
  (void)q.pop();
  EXPECT_EQ(q.next_time(), 42);
}

TEST(EventQueue, SizeAndEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] { order.push_back(1); });
  q.push(5, [&] { order.push_back(0); });
  Event e = q.pop();
  e.action();
  q.push(7, [&] { order.push_back(2); });  // earlier than remaining event
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(EventQueue, SingleEventPopKeepsActionIntact) {
  // Regression: pop() on a one-event heap used to move the back element
  // onto itself (front() aliases back()), leaving the popped action at the
  // mercy of self-move behavior. The action must survive and fire.
  EventQueue q;
  int fired = 0;
  q.push(11, [&] { ++fired; });
  Event only = q.pop();
  EXPECT_TRUE(q.empty());
  ASSERT_TRUE(static_cast<bool>(only.action));
  only.action();
  EXPECT_EQ(fired, 1);
  // And the queue remains fully usable through repeated 1-element cycles.
  for (int i = 0; i < 5; ++i) {
    q.push(i, [&] { ++fired; });
    q.pop().action();
  }
  EXPECT_EQ(fired, 6);
}

TEST(EventQueue, StressRandomOrderIsSorted) {
  EventQueue q;
  util::Rng rng(3);
  for (int i = 0; i < 5000; ++i) q.push(rng.uniform_int(0, 1000), [] {});
  util::SimTime last = -1;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueue, RandomInterleavingMatchesTimeSeqReference) {
  // Few distinct timestamps so most events tie; the queue must still fire
  // them in exactly (time, seq) order while pushes and pops interleave.
  EventQueue q;
  util::Rng rng(17);
  std::vector<std::pair<util::SimTime, std::uint64_t>> pending;  // reference
  std::vector<std::uint64_t> fired;  // seq each action was scheduled under
  std::uint64_t pushes = 0;
  util::SimTime now = 0;
  for (int step = 0; step < 20000; ++step) {
    if (q.empty() || rng.uniform_int(0, 2) > 0) {
      const util::SimTime t = now + rng.uniform_int(0, 3);
      const std::uint64_t mine = pushes++;
      ASSERT_EQ(q.push(t, [&fired, mine] { fired.push_back(mine); }), mine);
      pending.emplace_back(t, mine);
    } else {
      const auto ref = std::min_element(pending.begin(), pending.end());
      ASSERT_EQ(q.next_time(), ref->first);
      Event e = q.pop();
      ASSERT_EQ(e.time, ref->first);
      ASSERT_EQ(e.seq, ref->second);
      e.action();  // the action travelled with its own key
      ASSERT_EQ(fired.back(), ref->second);
      now = e.time;
      pending.erase(ref);
    }
    ASSERT_EQ(q.size(), pending.size());
  }
  std::sort(pending.begin(), pending.end());
  for (const auto& [t, seq] : pending) {
    Event e = q.pop();
    EXPECT_EQ(e.time, t);
    EXPECT_EQ(e.seq, seq);
    e.action();
    EXPECT_EQ(fired.back(), seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, OversizedCallbackTakesHeapPathAndFires) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes: past the inline buffer
  static_assert(sizeof(big) > Callback::kInlineBytes);
  big[0] = 1;
  big[15] = 40;
  std::vector<std::uint64_t> got;
  EventQueue q;
  q.push(3, [big, &got] { got.push_back(big[15]); });
  q.push(1, [&got] { got.push_back(0); });
  q.push(2, [big, &got] { got.push_back(big[0]); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 40}));
}

/// Counts destructions of live instances; moved-from shells count nothing,
/// so `*destroyed` is exactly the number of callables destroyed.
struct DestroyCounter {
  int* destroyed;
  explicit DestroyCounter(int* d) : destroyed(d) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : destroyed(std::exchange(other.destroyed, nullptr)) {}
  DestroyCounter(const DestroyCounter&) = delete;
  DestroyCounter& operator=(const DestroyCounter&) = delete;
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (destroyed != nullptr) ++*destroyed;
  }
  void operator()() const {}
};

TEST(EventQueue, PendingCallbacksDestroyedExactlyOnceWithQueue) {
  int destroyed = 0;
  {
    EventQueue q;
    for (int i = 0; i < 40; ++i) q.push(i % 7, DestroyCounter(&destroyed));
    for (int i = 0; i < 15; ++i) (void)q.pop();  // popped events die here
    EXPECT_EQ(destroyed, 15);
    for (int i = 0; i < 5; ++i) q.push(i, DestroyCounter(&destroyed));
    EXPECT_EQ(destroyed, 15);  // reused slots hold no stale callable
    EXPECT_EQ(q.size(), 30u);
  }
  EXPECT_EQ(destroyed, 45);
}

TEST(EventQueue, SlotReuseKeepsSizeEmptyAndNextTime) {
  EventQueue q;
  std::vector<int> order;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i)
      q.push(100 - i, [&order, i] { order.push_back(i); });
    EXPECT_EQ(q.size(), 8u);
    EXPECT_EQ(q.next_time(), 93);
    for (int i = 7; i >= 4; --i) q.pop().action();
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.next_time(), 97);
    // These pushes reuse the freed slots; the time-50 event fires first.
    q.push(50, [&order] { order.push_back(-1); });
    q.push(98, [&order] { order.push_back(-2); });
    EXPECT_EQ(q.size(), 6u);
    EXPECT_EQ(q.next_time(), 50);
    while (!q.empty()) q.pop().action();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.next_time(), util::kTimeInfinity);
  }
  const std::vector<int> one_round{7, 6, 5, 4, -1, 3, 2, -2, 1, 0};
  ASSERT_EQ(order.size(), 3 * one_round.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], one_round[i % one_round.size()]) << "event " << i;
}

TEST(EventQueue, DifferentialAgainstSortedReferenceAcrossRadixPaths) {
  // Thousands of interleaved pushes and pops, checked step by step against
  // a sorted (time, seq) set. The push times cover every bucket path: the
  // popped instant itself, offsets from 1 tick to 2^61 ticks, bursts at one
  // time, and pushes earlier than the last pop (down past time 0).
  enum Mode { kAtNow, kOffset, kBurst, kEarlier, kModes };
  EventQueue q;
  util::Rng rng(2024);
  std::set<std::pair<util::SimTime, std::uint64_t>> pending;
  std::vector<std::uint64_t> fired;
  std::array<int, kModes> pushed_by_mode{};
  std::array<int, 62> offsets_by_bit{};
  std::uint64_t pushes = 0;
  util::SimTime now = 0;  // last popped time
  auto push = [&](util::SimTime t) {
    const std::uint64_t mine = pushes++;
    ASSERT_EQ(q.push(t, [&fired, mine] { fired.push_back(mine); }), mine);
    pending.emplace(t, mine);
  };
  auto check_front = [&] {
    ASSERT_EQ(q.size(), pending.size());
    ASSERT_EQ(q.empty(), pending.empty());
    ASSERT_EQ(q.next_time(),
              pending.empty() ? util::kTimeInfinity : pending.begin()->first);
  };
  for (int step = 0; step < 40000; ++step) {
    // Alternate phases that grow the queue to hundreds of events and phases
    // that drain it, so both deep and near-empty queues are exercised.
    const int push_percent = (step / 2000) % 2 == 0 ? 60 : 25;
    if (pending.empty() || rng.uniform_int(0, 99) < push_percent) {
      const auto mode = static_cast<Mode>(rng.uniform_int(0, kModes - 1));
      ++pushed_by_mode[mode];
      switch (mode) {
        case kAtNow:
          push(now);
          break;
        case kOffset: {
          // Keep now + offset clear of INT64_MAX once `now` has grown.
          const int max_bit = now < (util::SimTime{1} << 61) ? 61 : 20;
          const int bit = static_cast<int>(rng.uniform_int(0, max_bit));
          const util::SimTime low = util::SimTime{1} << bit;
          ++offsets_by_bit[static_cast<std::size_t>(bit)];
          push(now + low + rng.uniform_int(0, low - 1));
          break;
        }
        case kBurst: {
          const util::SimTime t = now + rng.uniform_int(0, 5);
          for (auto i = rng.uniform_int(2, 8); i > 0; --i) push(t);
          break;
        }
        case kEarlier: {
          // From a large `now`, jump far back (past 0) so later offsets
          // start low again; from a negative one, stay close.
          const auto bit = rng.uniform_int(0, now > 0 ? 62 : 20);
          push(now - rng.uniform_int(1, util::SimTime{1} << bit));
          break;
        }
        case kModes:
          break;
      }
    } else {
      const auto ref = *pending.begin();
      Event e = q.pop();
      ASSERT_EQ(e.time, ref.first) << "step " << step;
      ASSERT_EQ(e.seq, ref.second) << "step " << step;
      e.action();  // the action travelled with its own key
      ASSERT_EQ(fired.back(), ref.second);
      now = e.time;
      pending.erase(pending.begin());
    }
    check_front();
  }
  while (!pending.empty()) {
    const auto ref = *pending.begin();
    Event e = q.pop();
    ASSERT_EQ(e.time, ref.first);
    ASSERT_EQ(e.seq, ref.second);
    pending.erase(pending.begin());
    check_front();
  }
  for (const int n : pushed_by_mode) EXPECT_GT(n, 1000);
  for (const int n : offsets_by_bit) EXPECT_GT(n, 10);
}

}  // namespace
}  // namespace ds::sim
