// Layer probes: host-timed calls into each layer's public API at the
// workload's rank count ("representative regions": time each layer alone,
// then compose against the whole-application run in run.py).
//
// Probes that run a simulated machine are timed as T(k iterations) -
// T(0 iterations) on identically built machines, so fiber spawn and
// teardown cancel and the figure is the cost per operation; the stream
// probes instead time each phase from the first rank entering it to the
// last rank leaving it. Timed probes report the median of kRepeats
// measurements.
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/channel.hpp"
#include "core/group_plan.hpp"
#include "core/stream.hpp"
#include "mpi/datatype.hpp"
#include "mpi/rank.hpp"
#include "net/fabric.hpp"
#include "perfbench/perfbench.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using ds::mpi::Machine;
using ds::mpi::Rank;
using ds::mpi::RecvBuf;
using ds::mpi::SendBuf;

constexpr int kRepeats = 3;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median over kRepeats of `timed()`, each a host-seconds figure.
double repeat_median(const std::function<double()>& timed) {
  std::vector<double> samples;
  for (int i = 0; i < kRepeats; ++i) samples.push_back(timed());
  return median_of(samples);
}

/// Host seconds of Machine::run(program) on a fresh workload machine with
/// `procs` ranks; construction and destruction are outside the timing.
double timed_machine_run(int procs, std::uint64_t seed,
                         const std::function<void(Rank&)>& program) {
  Machine machine(ds::bench::beskow_like(procs, seed));
  const double t0 = now_s();
  machine.run(program);
  return now_s() - t0;
}

/// Cost per operation of a machine program that performs `ops_per_iter`
/// operations per iteration: (T(iters) - T(0)) / (iters * ops_per_iter).
double per_op_ns(int procs, std::uint64_t seed, int iters, double ops_per_iter,
                 const std::function<void(Rank&, int)>& program) {
  return repeat_median([&] {
    const double full = timed_machine_run(
        procs, seed, [&](Rank& self) { program(self, iters); });
    const double empty =
        timed_machine_run(procs, seed, [&](Rank& self) { program(self, 0); });
    return (full - empty) / (iters * ops_per_iter);
  }) * 1e9;
}

// ---------------------------------------------------------------- sim --

/// Schedule + pop on an event heap held at depth `depth`.
double queue_ns(int depth, std::uint64_t seed) {
  constexpr int kOps = 500'000;
  return repeat_median([&] {
    ds::util::Rng rng(seed);
    ds::sim::EventQueue queue;
    for (int i = 0; i < depth; ++i)
      static_cast<void>(queue.push(rng.uniform_int(0, 999'999), [] {}));
    const double t0 = now_s();
    for (int i = 0; i < kOps; ++i) {
      const ds::sim::Event ev = queue.pop();
      static_cast<void>(queue.push(ev.time + rng.uniform_int(1, 1'000), [] {}));
    }
    return now_s() - t0;
  }) / kOps * 1e9;
}

/// Host seconds of an engine with `procs` fibers each running `body(p, k)`.
double timed_engine(int procs, std::uint64_t seed, bool noisy, int k,
                    const std::function<void(ds::sim::Process&, int)>& body) {
  ds::sim::EngineConfig config;
  config.seed = seed;
  if (noisy) config.noise = ds::sim::NoiseConfig::production_node();
  ds::sim::Engine engine(config);
  for (int i = 0; i < procs; ++i)
    engine.spawn([&body, k](ds::sim::Process& p) { body(p, k); });
  const double t0 = now_s();
  engine.run();
  return now_s() - t0;
}

/// Suspend/wake round trip between fiber pairs, `procs` fibers live.
double switch_ns(int procs, std::uint64_t seed) {
  const int iters = std::max(20, 400'000 / procs);
  const auto body = [](ds::sim::Process& p, int k) {
    const int partner = p.id() ^ 1;
    for (int i = 0; i < k; ++i) {
      if (p.id() % 2 == 0) {
        p.engine().wake(partner);
        p.suspend();
      } else {
        p.suspend();
        p.engine().wake(partner);
      }
    }
  };
  return repeat_median([&] {
    return timed_engine(procs, seed, false, iters, body) -
           timed_engine(procs, seed, false, 0, body);
  }) / (static_cast<double>(procs) * iters) * 1e9;
}

/// Process::compute under production noise minus Process::advance.
double compute_ns(int procs, std::uint64_t seed) {
  const int iters = std::max(20, 200'000 / procs);
  const auto compute = [](ds::sim::Process& p, int k) {
    for (int i = 0; i < k; ++i) p.compute(ds::util::microseconds(10), "comp");
  };
  const auto advance = [](ds::sim::Process& p, int k) {
    for (int i = 0; i < k; ++i) p.advance(ds::util::microseconds(10));
  };
  return repeat_median([&] {
    return timed_engine(procs, seed, true, iters, compute) -
           timed_engine(procs, seed, true, iters, advance);
  }) / (static_cast<double>(procs) * iters) * 1e9;
}

// ---------------------------------------------------------------- mpi --

/// Blocking 8-byte ping-pong between rank pairs: host ns per message.
double p2p_ns(int procs, std::uint64_t seed) {
  const int iters = std::max(10, 60'000 / procs);
  return per_op_ns(procs, seed, iters, 2.0 * (procs / 2),
                   [](Rank& self, int k) {
                     const int me = self.rank_in(self.world());
                     const int partner = me ^ 1;
                     if (partner >= self.world_size()) return;
                     const SendBuf out = SendBuf::synthetic(sizeof(std::uint64_t));
                     const RecvBuf in = RecvBuf::discard(sizeof(std::uint64_t));
                     for (int i = 0; i < k; ++i) {
                       if (me % 2 == 0) {
                         self.send(self.world(), partner, 7, out);
                         self.recv(self.world(), partner, 7, in);
                       } else {
                         self.recv(self.world(), partner, 7, in);
                         self.send(self.world(), partner, 7, out);
                       }
                     }
                   });
}

/// One 8-byte sum allreduce over all ranks: host ns per collective.
double allreduce_ns(int procs, std::uint64_t seed) {
  const int iters = 5;
  return per_op_ns(procs, seed, iters, 1.0, [](Rank& self, int k) {
    for (int i = 0; i < k; ++i) {
      std::uint64_t mine = 1, total = 0;
      self.allreduce(self.world(), SendBuf::of(&mine, 1), &total,
                     ds::mpi::reduce_sum<std::uint64_t>());
    }
  });
}

// ---------------------------------------------------------------- net --

/// Fabric::schedule_message between random endpoint pairs.
double fabric_ns(int procs, std::uint64_t seed, std::size_t bytes) {
  constexpr int kOps = 200'000;
  return repeat_median([&] {
    ds::util::Rng rng(seed);
    std::vector<std::pair<int, int>> pairs(4096);
    for (auto& [src, dst] : pairs) {
      src = static_cast<int>(rng.uniform_int(0, procs - 1));
      dst = static_cast<int>(rng.uniform_int(0, procs - 1));
    }
    ds::net::Fabric fabric(ds::bench::beskow_like(procs, seed).network, procs);
    ds::util::SimTime t = 0;
    const double t0 = now_s();
    for (int i = 0; i < kOps; ++i) {
      const auto& [src, dst] = pairs[static_cast<std::size_t>(i) % pairs.size()];
      t = fabric.schedule_message(src, dst, bytes, t).sender_free_at;
    }
    return now_s() - t0;
  }) / kOps * 1e9;
}

// --------------------------------------------------------------- core --

/// Host-time interval a group of fibers spends in one phase: from the first
/// rank entering it to the last rank leaving it.
struct Phase {
  double first = std::numeric_limits<double>::infinity();
  double last = 0.0;
  void enter() { first = std::min(first, now_s()); }
  void exit() { last = std::max(last, now_s()); }
  [[nodiscard]] double seconds() const { return last - first; }
};

/// Workers stream `k` synthetic elements of `bytes` each to helpers over
/// `channel` (Block mapping on the interleaved plan); helpers operate().
/// `sample` runs at each consumed element and after each producer's first.
void stream_phase(Rank& self, const ds::stream::Channel& channel,
                  std::size_t bytes, int k, std::uint64_t stream_id,
                  const std::function<void()>& sample = {}) {
  auto stream = ds::stream::Stream::attach(
      channel, ds::mpi::Datatype::bytes(bytes),
      [&](const ds::stream::StreamElement&) {
        if (sample) sample();
      },
      stream_id);
  if (channel.my_producer_index(self) >= 0) {
    for (int i = 0; i < k; ++i) {
      stream.isend(self, SendBuf::synthetic(bytes));
      if (sample && i == 0) sample();
    }
    stream.terminate(self);
  } else if (channel.my_consumer_index(self) >= 0) {
    stream.operate(self);
  }
}

ds::stream::Channel create_channel(Rank& self) {
  const auto plan = ds::stream::GroupPlan::interleaved(self.world(), kHelperStride);
  const int r = self.rank_in(self.world());
  return ds::stream::Channel::create(self, self.world(), plan.is_worker(r),
                                     plan.is_helper(r));
}

struct StreamCosts {
  double channel_s = 0.0;  ///< Channel::create plus Channel::free
  std::vector<double> ns_per_element;  ///< one per element size
};

/// One machine run: create a channel, stream `k` elements per worker at
/// each size in turn (phases separated by barriers), free the channel.
/// Each phase includes the producers' one term message each.
StreamCosts stream_costs(int procs, std::uint64_t seed,
                         const std::vector<std::size_t>& sizes) {
  const int workers = procs - procs / kHelperStride;
  const int k = std::max(8, 40'000 / workers);
  Phase create, release;
  std::vector<Phase> phases(sizes.size());
  timed_machine_run(procs, seed, [&](Rank& self) {
    create.enter();
    auto channel = create_channel(self);
    create.exit();
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      static_cast<void>(self.barrier(self.world()));
      phases[s].enter();
      stream_phase(self, channel, sizes[s], k, s + 1);
      phases[s].exit();
    }
    static_cast<void>(self.barrier(self.world()));
    release.enter();
    channel.free(self);
    release.exit();
  });
  StreamCosts costs;
  costs.channel_s = create.seconds() + release.seconds();
  for (const Phase& phase : phases)
    costs.ns_per_element.push_back(phase.seconds() / (workers * k) * 1e9);
  return costs;
}

/// Median of each StreamCosts field over kRepeats machine runs.
StreamCosts stream_costs_median(int procs, std::uint64_t seed,
                                const std::vector<std::size_t>& sizes) {
  std::vector<StreamCosts> runs;
  for (int i = 0; i < kRepeats; ++i)
    runs.push_back(stream_costs(procs, seed, sizes));
  StreamCosts median;
  std::vector<double> channel;
  for (const auto& run : runs) channel.push_back(run.channel_s);
  median.channel_s = median_of(channel);
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    std::vector<double> ns;
    for (const auto& run : runs) ns.push_back(run.ns_per_element[s]);
    median.ns_per_element.push_back(median_of(ns));
  }
  return median;
}

/// Heap bytes per rank held by channel and stream state while elements are
/// in flight: peak heap in use during a short stream run, minus the heap in
/// use when the first rank starts, over the rank count.
double stream_bytes_per_rank(int procs, std::uint64_t seed, std::size_t bytes) {
  const auto heap = [] {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
  };
  double baseline = -1.0, peak = 0.0;
  timed_machine_run(procs, seed, [&](Rank& self) {
    if (baseline < 0.0) baseline = heap();
    auto channel = create_channel(self);
    stream_phase(self, channel, bytes, 4, 1,
                 [&] { peak = std::max(peak, heap()); });
    channel.free(self);
  });
  return std::max(0.0, peak - baseline) / procs;
}

}  // namespace

void run_probes(const Workload& w, std::uint64_t seed, JsonLine& out) {
  const int p = w.procs;
  const std::size_t small = sizeof(std::uint64_t);
  const std::size_t histogram = wordcount_element_bytes();
  const double p2p_64 = p2p_ns(64, seed);
  const double p2p_p = p2p_ns(p, seed);
  const StreamCosts streams =
      stream_costs_median(p, seed, {pic_element_bytes(w), histogram});
  out.num("probe.sim.queue_ns", queue_ns(p, seed))
      .num("probe.sim.switch_ns", switch_ns(p, seed))
      .num("probe.sim.compute_ns", compute_ns(p, seed))
      .num("probe.mpi.p2p_ns_64", p2p_64)
      .num("probe.mpi.p2p_ns", p2p_p)
      .num("probe.mpi.p2p_scale_ratio", p2p_p / p2p_64)
      .num("probe.mpi.allreduce_ns", allreduce_ns(p, seed))
      .num("probe.net.eager_ns", fabric_ns(p, seed, small))
      .num("probe.net.large_ns", fabric_ns(p, seed, histogram))
      .num("probe.core.stream_ns_per_element_pic", streams.ns_per_element[0])
      .num("probe.core.stream_ns_per_element_wordcount",
           streams.ns_per_element[1])
      .num("probe.core.channel_create_s", streams.channel_s)
      .num("probe.core.stream_bytes_per_rank",
           stream_bytes_per_rank(p, seed, pic_element_bytes(w)));
}

}  // namespace perfbench
