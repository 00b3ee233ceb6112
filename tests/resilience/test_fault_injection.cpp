// Fault-injection mechanics (ds::resilience layer 1): fail-stop semantics,
// mailbox draining, pool-slot accounting, restart, and degradation.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/machine_helpers.hpp"
#include "mpi/rank.hpp"
#include "resilience/fault.hpp"

namespace ds {
namespace {

using mpi::Rank;
using mpi::RecvBuf;
using mpi::SendBuf;

TEST(FaultPlan, BuilderValidates) {
  sim::FaultPlan plan;
  plan.crash(3, util::milliseconds(1)).restart(3, util::milliseconds(2));
  plan.degrade_link(1, util::microseconds(5), 4.0, util::milliseconds(1));
  EXPECT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.first_crash_at(3), util::milliseconds(1));
  EXPECT_EQ(plan.first_crash_at(0), -1);
  EXPECT_THROW(plan.crash(-1, 0), std::invalid_argument);
  EXPECT_THROW(plan.degrade_link(0, 0, 0.5), std::invalid_argument);
}

TEST(FaultInjection, CrashUnwindsAtNextInteraction) {
  // The victim observes the crash at its next runtime interaction and never
  // executes code past it; the machine run still completes.
  auto config = testing::tiny_machine(2);
  config.faults.crash(1, util::microseconds(50));
  bool before = false, after = false;
  testing::run_program(config, [&](Rank& self) {
    if (self.world_rank() == 0) return;
    self.compute(util::microseconds(10));
    before = true;
    self.compute(util::microseconds(100));  // crash lands inside this segment
    self.compute(util::microseconds(1));    // observation point -> unwind
    after = true;
  });
  EXPECT_TRUE(before);
  EXPECT_FALSE(after);
}

TEST(FaultInjection, PostedReceiveFailsAndMailboxDrains) {
  // Victim blocks in recv; the crash completes the posted receive with
  // Status::failed, the fiber unwinds, and messages arriving afterwards are
  // dropped instead of accumulating in a dead mailbox.
  auto config = testing::tiny_machine(2);
  config.faults.crash(1, util::microseconds(50));
  bool victim_got_data = false;
  mpi::Machine machine(config);
  machine.run([&](Rank& self) {
    if (self.world_rank() == 1) {
      int value = 0;
      self.recv(self.world(), 0, 7, RecvBuf::of(&value, 1));
      victim_got_data = true;  // unreachable: recv fails at the crash
      return;
    }
    self.compute(util::microseconds(200));  // send only after the crash
    const int v = 42;
    for (int i = 0; i < 8; ++i) self.send(self.world(), 1, 7, SendBuf::of(&v, 1));
  });
  EXPECT_FALSE(victim_got_data);
  EXPECT_TRUE(machine.rank_failed(1));
  EXPECT_EQ(machine.failure_epoch(), 1u);
  // No pooled operation slot may stay pinned after the run drains.
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

TEST(FaultInjection, InFlightTrafficToDeadRankDoesNotLeakPoolSlots) {
  // A burst already in flight toward the victim when it dies is dropped on
  // arrival; every pooled op (including rendezvous-class) recycles.
  auto config = testing::tiny_machine(4);
  config.faults.crash(2, util::microseconds(30));
  mpi::Machine machine(config);
  std::vector<std::byte> big(256 * 1024);  // rendezvous-class payload
  machine.run([&](Rank& self) {
    if (self.world_rank() == 2) {
      // Victim consumes a little, then blocks forever (until killed).
      int v = 0;
      self.recv(self.world(), mpi::kAnySource, 5, RecvBuf::of(&v, 1));
      self.recv(self.world(), mpi::kAnySource, 5, RecvBuf::of(&v, 1));
      return;
    }
    const int v = 7;
    self.send(self.world(), 2, 5, SendBuf::of(&v, 1));
    // Eager and rendezvous sends racing the crash: isend and move on.
    auto r1 = self.isend(self.world(), 2, 5, SendBuf::of(&v, 1));
    auto r2 = self.isend(self.world(), 2, 5,
                         SendBuf{big.data(), big.size()});
    self.wait(r1);
    self.wait(r2);  // must complete even though the peer died
  });
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

TEST(FaultInjection, RestartRespawnsWithBumpedIncarnation) {
  auto config = testing::tiny_machine(2);
  config.faults.crash(1, util::microseconds(50));
  config.faults.restart(1, util::microseconds(200));
  int incarnations_seen = 0;
  bool exchanged_after_restart = false;
  mpi::Machine machine(config);
  machine.run([&](Rank& self) {
    if (self.world_rank() == 0) {
      int v = 0;
      self.recv(self.world(), 1, 9, RecvBuf::of(&v, 1));
      exchanged_after_restart = v == 1;
      return;
    }
    ++incarnations_seen;
    if (self.incarnation() == 0) {
      // First life: blocks until the crash unwinds it.
      int v = 0;
      self.recv(self.world(), 0, 9, RecvBuf::of(&v, 1));
      return;
    }
    const int v = self.incarnation();
    self.send(self.world(), 0, 9, SendBuf::of(&v, 1));
  });
  EXPECT_EQ(incarnations_seen, 2);
  EXPECT_TRUE(exchanged_after_restart);
  EXPECT_FALSE(machine.rank_failed(1));
  EXPECT_EQ(machine.incarnation(1), 1);
}

TEST(FaultInjection, LinkDegradationSlowsDeliveryThenRecovers) {
  // The same ping-pong is timed in three phases; during the degrade window
  // the round trip must be strictly slower, and after it expires the
  // nominal timing returns. Deterministic: no noise configured.
  auto round_trip = [](bool degraded) {
    auto config = testing::tiny_machine(2);
    if (degraded)
      config.faults.degrade_link(1, 0, 8.0, util::seconds_i(1));
    util::SimTime elapsed = 0;
    testing::run_program(config, [&](Rank& self) {
      std::vector<std::byte> buf(64 * 1024);
      if (self.world_rank() == 0) {
        const util::SimTime t0 = self.now();
        self.send(self.world(), 1, 3, SendBuf{buf.data(), buf.size()});
        self.recv(self.world(), 1, 4, RecvBuf{buf.data(), buf.size()});
        elapsed = self.now() - t0;
      } else {
        self.recv(self.world(), 0, 3, RecvBuf{buf.data(), buf.size()});
        self.send(self.world(), 0, 4, SendBuf{buf.data(), buf.size()});
      }
    });
    return elapsed;
  };
  const util::SimTime nominal = round_trip(false);
  const util::SimTime degraded = round_trip(true);
  EXPECT_GT(degraded, nominal + nominal / 2);
}

TEST(FaultPlan, DegradePathBuilderValidates) {
  sim::FaultPlan plan;
  plan.degrade_path(0, 3, util::microseconds(5), 4.0, util::milliseconds(1));
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].rank, 0);
  EXPECT_EQ(plan.events[0].rank_b, 3);
  EXPECT_THROW(plan.degrade_path(-1, 0, 0, 2.0), std::invalid_argument);
  EXPECT_THROW(plan.degrade_path(0, -1, 0, 2.0), std::invalid_argument);
  EXPECT_THROW(plan.degrade_path(0, 1, 0, 0.5), std::invalid_argument);
}

TEST(FaultInjection, PathDegradeEndpointMustBeInsideWorld) {
  auto config = testing::tiny_machine(2);
  config.faults.degrade_path(0, 5, 0, 2.0);
  mpi::Machine machine(config);
  EXPECT_THROW(machine.run([](Rank&) {}), std::invalid_argument);
}

TEST(FaultInjection, PathDegradeSlowsSharedLinksThenRecovers) {
  // Two nodes of two ranks under the two-level topology: degrading the
  // 0 -> 2 path hits node0:up and node1:down, so the inter-node ping-pong
  // slows while the window is open and recovers after it expires.
  auto round_trip = [](bool degraded) {
    auto config = testing::tiny_machine(4);
    config.network.ranks_per_node = 2;
    config.network.topology.kind = net::TopologyConfig::Kind::TwoLevel;
    config.network.ns_per_byte_node_link = 1.0;  // links dominate the cost
    if (degraded)
      config.faults.degrade_path(0, 2, 0, 8.0, util::milliseconds(5));
    std::array<util::SimTime, 2> elapsed{};
    testing::run_program(config, [&](Rank& self) {
      std::vector<std::byte> buf(64 * 1024);
      const auto time_round = [&](int tag) {
        const util::SimTime t0 = self.now();
        self.send(self.world(), 2, tag, SendBuf{buf.data(), buf.size()});
        self.recv(self.world(), 2, tag + 1, RecvBuf{buf.data(), buf.size()});
        return self.now() - t0;
      };
      if (self.world_rank() == 0) {
        elapsed[0] = time_round(3);
        self.compute(util::milliseconds(10));  // outlive the degrade window
        elapsed[1] = time_round(5);
      } else if (self.world_rank() == 2) {
        for (const int tag : {3, 5}) {
          self.recv(self.world(), 0, tag, RecvBuf{buf.data(), buf.size()});
          self.send(self.world(), 0, tag + 1, SendBuf{buf.data(), buf.size()});
        }
      }
    });
    return elapsed;
  };
  const auto nominal = round_trip(false);
  const auto faulted = round_trip(true);
  EXPECT_GT(faulted[0], nominal[0] + nominal[0] / 2);  // inside the window
  EXPECT_EQ(faulted[1], nominal[1]);                   // after revert
}

TEST(FaultInjection, NoiseModelComposesDegradation) {
  // Degradation scales the nominal before jitter/detours apply, so a
  // degraded rank still carries proportional noise on top of the slowdown.
  util::Rng rng = util::Rng::for_stream(7, 0);
  sim::NoiseModel silent{};
  EXPECT_EQ(silent.perturb(util::microseconds(100), rng, 3.0),
            util::microseconds(300));
  sim::NoiseModel noisy{sim::NoiseConfig{0.10, 0.0, 0}};
  util::Rng a = util::Rng::for_stream(7, 1);
  util::Rng b = util::Rng::for_stream(7, 1);
  const util::SimTime base = noisy.perturb(util::microseconds(100), a, 1.0);
  const util::SimTime slowed = noisy.perturb(util::microseconds(100), b, 3.0);
  // Same RNG stream -> same jitter factor -> 3x up to integer rounding.
  EXPECT_NEAR(static_cast<double>(slowed), 3.0 * static_cast<double>(base), 3.0);
}

TEST(FaultInjection, ComputeDegradeSlowsCrashedWindowDeterministically) {
  // End to end through the engine: a degraded rank's compute takes factor x
  // longer while the window is open.
  auto measure = [](bool degraded) {
    auto config = testing::tiny_machine(1);
    if (degraded) config.faults.degrade_link(0, 0, 4.0, util::seconds_i(1));
    util::SimTime elapsed = 0;
    testing::run_program(config, [&](Rank& self) {
      self.compute(util::microseconds(1));  // let the t=0 fault event land
      const util::SimTime t0 = self.now();
      self.compute(util::microseconds(250));
      elapsed = self.now() - t0;
    });
    return elapsed;
  };
  EXPECT_EQ(measure(true), 4 * measure(false));
}

TEST(FaultInjection, OrphanedReceivesFailNewestFirstAmongOthers) {
  // Receives naming the dying peer, interleaved with receives from a live
  // one: the crash completes the orphans newest first, the others stay
  // queued in post order, and a receive posted after the crash queues
  // behind them.
  auto config = testing::tiny_machine(3);
  config.faults.crash(1, util::microseconds(50));
  std::vector<int> order;
  std::vector<int> values(6, -1);
  std::vector<bool> failed(6, false);
  mpi::Machine machine(config);
  machine.run([&](Rank& self) {
    if (self.world_rank() == 1) {
      self.compute(util::milliseconds(1));  // dies inside this segment
      return;
    }
    if (self.world_rank() == 2) {
      self.compute(util::microseconds(200));  // only after the crash
      for (int i = 0; i < 3; ++i) self.send(self.world(), 0, 4, SendBuf::of(&i, 1));
      return;
    }
    mpi::Machine& m = self.machine();
    std::vector<mpi::Request> reqs;
    const auto post = [&](int id, int src) {
      reqs.push_back(m.post_recv(
          self.world().context(), 0, src, 4,
          RecvBuf::of(&values[static_cast<std::size_t>(id)], 1),
          [&order, id] { order.push_back(id); }, /*fused_wake=*/false,
          /*src_world=*/src));
    };
    post(0, 1);
    post(1, 2);
    post(2, 1);
    post(3, 2);
    post(4, 1);
    self.compute(util::microseconds(100));  // the crash lands here
    post(5, 2);
    self.wait_all(reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      failed[i] = reqs[i]->status.failed;
  });
  EXPECT_EQ(order, (std::vector<int>{4, 2, 0, 1, 3, 5}));
  EXPECT_EQ(failed, (std::vector<bool>{true, false, true, false, true, false}));
  EXPECT_EQ(values[1], 0);
  EXPECT_EQ(values[3], 1);
  EXPECT_EQ(values[5], 2);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

}  // namespace
}  // namespace ds
