// Per-rank set-up memory gate. A word-count-shaped three-stage pipeline
// (map -> reduce -> master over an interleaved split, as
// apps/wordcount/run_decoupled builds it) is set up at two machine sizes,
// and the heap bytes its set-up leaves live are divided by the rank count.
// Read-only set-up state (the split, the stage lists, each channel's member
// list and term tree) is interned once per machine, so the per-rank share
// must stay flat as the machine grows; a table of O(P) held by every rank
// makes it grow with P. The same holds for the stream state each map
// producer's first send builds: a producer sizes its per-flow records by
// the consumers it addresses, not by the channel's consumer count.
//
// The count is deterministic: this binary replaces the global operator
// new/delete (as bench/micro_simcore.cpp does) and tracks the usable size
// of every live block. Fiber stacks are mapped, not heap-allocated, so they
// do not count.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <new>
#include <vector>

#include "common/machine_helpers.hpp"
#include "core/decouple.hpp"
#include "core/group_plan.hpp"

namespace {
long long g_live_bytes = 0;

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc{};
  g_live_bytes += static_cast<long long>(malloc_usable_size(p));
  return p;
}
void release(void* p) noexcept {
  g_live_bytes -= static_cast<long long>(malloc_usable_size(p));
  std::free(p);
}
std::size_t aligned_size(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  return (size + a - 1) & ~(a - 1);
}
}  // namespace

void* operator new(std::size_t size) {
  return counted(std::malloc(size ? size : 1));
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size ? size : 1);
  if (p != nullptr)
    g_live_bytes += static_cast<long long>(malloc_usable_size(p));
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted(std::aligned_alloc(static_cast<std::size_t>(align),
                                    aligned_size(size ? size : 1, align)));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace ds::decouple {
namespace {

using mpi::Rank;

constexpr int kStride = 16;  // the word-count benches' helper stride

struct LiveBytes {
  long long after_setup = 0;
  long long after_first_send = 0;
};

/// Live heap bytes of a `procs`-rank machine, each sampled by parent rank 0
/// between two barriers, so every rank has reached the sample point and
/// none has moved past it: once every rank has finished set-up, and once
/// every map producer has also sent one element on the Block map -> reduce
/// stream (before any stream terminates). With `pipeline` false the ranks
/// only take the first sample: the machine's own footprint, which the
/// pipeline's is measured against.
LiveBytes live_bytes(int procs, bool pipeline) {
  LiveBytes sampled;
  mpi::Machine machine(testing::tiny_machine(procs));
  const stream::GroupPlan plan =
      stream::GroupPlan::interleaved(machine.world(), kStride);
  machine.run([&](Rank& self) {
    const auto sample = [&](long long& into) {
      (void)self.barrier(self.world());
      if (self.world_rank() == 0) into = g_live_bytes;
      (void)self.barrier(self.world());
    };
    if (!pipeline) {
      sample(sampled.after_setup);
      return;
    }
    auto p = Pipeline::over(self, self.world());
    const auto map = p.stage({plan.workers().begin(), plan.workers().end()});
    const auto reduce =
        p.stage({std::next(plan.helpers().begin()), plan.helpers().end()});
    const auto top = p.stage(std::vector<int>{plan.helpers().front()});
    const auto blocks = p.raw_stream_between(map, reduce, 4096);
    (void)p.raw_stream_between(reduce, top, 4096);
    const auto map_fn = [&](Context& ctx) {
      sample(sampled.after_setup);
      ctx[blocks].send_synthetic(64);
      sample(sampled.after_first_send);
    };
    const auto reduce_fn = [&](Context& ctx) {
      sample(sampled.after_setup);
      sample(sampled.after_first_send);
      (void)ctx[blocks].operate();
    };
    const auto top_fn = [&](Context&) {
      sample(sampled.after_setup);
      sample(sampled.after_first_send);
    };
    p.run_stages({map_fn, reduce_fn, top_fn});
  });
  return sampled;
}

struct PerRank {
  long long setup = 0;       ///< set-up bytes per rank
  long long first_send = 0;  ///< bytes the first sends add, per rank
};

PerRank bytes_per_rank(int procs) {
  const LiveBytes machine_only = live_bytes(procs, false);
  const LiveBytes with_pipeline = live_bytes(procs, true);
  return {(with_pipeline.after_setup - machine_only.after_setup) / procs,
          (with_pipeline.after_first_send - with_pipeline.after_setup) / procs};
}

class SetupMemory : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    small_ = bytes_per_rank(256);
    large_ = bytes_per_rank(1024);
  }
  static PerRank small_, large_;
};
PerRank SetupMemory::small_, SetupMemory::large_;

TEST_F(SetupMemory, PerRankSetupBytesStayFlatFrom256To1024Ranks) {
  std::printf("set-up heap bytes per rank: P=256 %lld, P=1024 %lld\n",
              small_.setup, large_.setup);
  ASSERT_GT(small_.setup, 0);
  // O(1) per rank plus O(P) per machine keeps the per-rank share flat; a
  // table of O(P) on every rank makes it grow with the machine.
  EXPECT_LE(large_.setup, small_.setup * 3 / 2)
      << "per-rank set-up memory grows with the machine size";
}

TEST_F(SetupMemory, ProducerStateStaysFlatFrom256To1024Ranks) {
  // A Block producer addresses one consumer, so the state its first send
  // builds (framing box, one flow record, the frame in flight) must not
  // grow with the channel's consumer count (15 reducers at 256 ranks, 63
  // at 1,024).
  std::printf("first-send heap bytes per rank: P=256 %lld, P=1024 %lld\n",
              small_.first_send, large_.first_send);
  ASSERT_GT(small_.first_send, 0);
  EXPECT_LE(large_.first_send, small_.first_send * 3 / 2)
      << "per-rank producer state grows with the consumer count";
}

}  // namespace
}  // namespace ds::decouple
