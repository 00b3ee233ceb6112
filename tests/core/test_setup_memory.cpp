// Per-rank set-up memory gate. A word-count-shaped three-stage pipeline
// (map -> reduce -> master over an interleaved split, as
// apps/wordcount/run_decoupled builds it) is set up at two machine sizes,
// and the heap bytes its set-up leaves live are divided by the rank count.
// Read-only set-up state (the split, the stage lists, each channel's member
// list and term tree) is interned once per machine, so the per-rank share
// must stay flat as the machine grows; a table of O(P) held by every rank
// makes it grow with P.
//
// The count is deterministic: this binary replaces the global operator
// new/delete (as bench/micro_simcore.cpp does) and tracks the usable size
// of every live block. Fiber stacks are mapped, not heap-allocated, so they
// do not count.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
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

/// Live heap bytes at the instant every rank of a `procs`-rank machine has
/// finished set-up (sampled by parent rank 0 after a barrier that follows
/// it). With `pipeline` false the ranks only run the barrier: the machine's
/// own footprint, which the pipeline's is measured against.
long long live_bytes_after_setup(int procs, bool pipeline) {
  long long sampled = 0;
  mpi::Machine machine(testing::tiny_machine(procs));
  const stream::GroupPlan plan =
      stream::GroupPlan::interleaved(machine.world(), kStride);
  const int master = plan.helpers().front();
  machine.run([&](Rank& self) {
    const auto sample = [&] {
      (void)self.barrier(self.world());
      if (self.world_rank() == 0) sampled = g_live_bytes;
    };
    if (!pipeline) {
      sample();
      return;
    }
    auto p = Pipeline::over(self, self.world());
    const auto map = p.stage({plan.workers().begin(), plan.workers().end()});
    const auto reduce =
        p.stage([&](int r) { return plan.is_helper(r) && r != master; });
    const auto top = p.stage(std::vector<int>{master});
    (void)p.raw_stream_between(map, reduce, 4096);
    (void)p.raw_stream_between(reduce, top, 4096);
    const auto stage_fn = [&](Context&) { sample(); };
    p.run_stages({stage_fn, stage_fn, stage_fn});
  });
  return sampled;
}

long long setup_bytes_per_rank(int procs) {
  const long long machine_only = live_bytes_after_setup(procs, false);
  const long long with_pipeline = live_bytes_after_setup(procs, true);
  return (with_pipeline - machine_only) / procs;
}

TEST(SetupMemory, PerRankSetupBytesStayFlatFrom256To1024Ranks) {
  const long long small = setup_bytes_per_rank(256);
  const long long large = setup_bytes_per_rank(1024);
  std::printf("set-up heap bytes per rank: P=256 %lld, P=1024 %lld\n", small,
              large);
  ASSERT_GT(small, 0);
  // O(1) per rank plus O(P) per machine keeps the per-rank share flat; a
  // table of O(P) on every rank makes it grow with the machine.
  EXPECT_LE(large, small * 3 / 2)
      << "per-rank set-up memory grows with the machine size";
}

}  // namespace
}  // namespace ds::decouple
