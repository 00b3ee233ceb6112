// Whole-stack determinism: a simulation is a pure function of (program,
// seed). These tests run full applications twice and demand identical
// virtual results — the property every other experiment leans on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/pic/pic_app.hpp"
#include "apps/wordcount/wordcount.hpp"
#include "common/machine_helpers.hpp"

namespace ds {
namespace {

TEST(Determinism, WordcountModeledRepeatsExactly) {
  apps::wordcount::WordcountConfig cfg;
  cfg.stride = 4;
  mpi::MachineConfig machine = testing::tiny_machine(16);
  machine.engine.noise = sim::NoiseConfig::production_node();
  const auto a = apps::wordcount::run_decoupled(cfg, machine);
  const auto b = apps::wordcount::run_decoupled(cfg, machine);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.elements_streamed, b.elements_streamed);
}

TEST(Determinism, SeedChangesOutcomeUnderNoise) {
  apps::wordcount::WordcountConfig cfg;
  cfg.stride = 4;
  mpi::MachineConfig machine = testing::tiny_machine(16);
  machine.engine.noise = sim::NoiseConfig::production_node();
  const auto a = apps::wordcount::run_reference(cfg, machine);
  machine.engine.seed = 4242;
  const auto b = apps::wordcount::run_reference(cfg, machine);
  EXPECT_NE(a.seconds, b.seconds);
}

TEST(Determinism, PicModeledRepeatsExactly) {
  apps::pic::PicConfig cfg;
  cfg.particles_per_rank = 2000;
  cfg.steps = 4;
  cfg.stride = 4;
  mpi::MachineConfig machine = testing::tiny_machine(16);
  machine.engine.noise = sim::NoiseConfig::production_node();
  const auto a = apps::pic::run_pic(apps::pic::ExchangeVariant::Decoupled, cfg, machine);
  const auto b = apps::pic::run_pic(apps::pic::ExchangeVariant::Decoupled, cfg, machine);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.total_particles_end, b.total_particles_end);
}

TEST(Determinism, NoiselessRunsIgnoreSeed) {
  apps::pic::PicConfig cfg;
  cfg.particles_per_rank = 1000;
  cfg.steps = 3;
  cfg.stride = 4;
  // The exit jitter uses cfg.seed, which we hold constant; the machine seed
  // only feeds the (disabled) noise model, so times must match exactly.
  mpi::MachineConfig m1 = testing::tiny_machine(16);
  mpi::MachineConfig m2 = testing::tiny_machine(16);
  m2.engine.seed = 999;
  const auto a = apps::pic::run_pic(apps::pic::ExchangeVariant::Reference, cfg, m1);
  const auto b = apps::pic::run_pic(apps::pic::ExchangeVariant::Reference, cfg, m2);
  EXPECT_EQ(a.seconds, b.seconds);
}

// Exact virtual-time pins. The tests above check repeatability within one
// build; these check it across builds: the makespan in integer ns and the
// engine's executed-event count of three 64-rank runs under production
// noise. A change that must not move virtual time (a faster event queue, a
// leaner set-up) reproduces them exactly. A change that shifts them on
// purpose updates the pins and names the cause in CHANGES.md.

mpi::MachineConfig pinned_machine() {
  mpi::MachineConfig machine = testing::tiny_machine(64);
  machine.engine.noise = sim::NoiseConfig::production_node();
  return machine;
}

apps::pic::PicConfig pinned_pic() {
  apps::pic::PicConfig cfg;
  cfg.particles_per_rank = 2000;
  cfg.steps = 4;
  return cfg;
}

/// `engine.events_executed` from a ds.metrics.v1 document.
std::uint64_t events_executed(const std::string& metrics_json) {
  const std::string name = "\"engine.events_executed\"";
  const std::size_t at = metrics_json.find(name);
  if (at == std::string::npos) return 0;
  const std::size_t value = metrics_json.find("\"value\":", at);
  if (value == std::string::npos) return 0;
  return std::stoull(metrics_json.substr(value + 8));
}

void expect_pinned_pic(apps::pic::ExchangeVariant variant,
                       util::SimTime makespan_ns, std::uint64_t events) {
  const auto plain =
      apps::pic::run_pic(variant, pinned_pic(), pinned_machine());
  EXPECT_EQ(util::from_seconds(plain.seconds), makespan_ns);
  const auto traced =
      apps::pic::run_pic_traced(variant, pinned_pic(), pinned_machine());
  EXPECT_EQ(util::from_seconds(traced.result.seconds), makespan_ns);
  EXPECT_EQ(events_executed(traced.metrics_json), events);
}

TEST(Determinism, PicReferenceMatchesPinnedVirtualTime) {
  expect_pinned_pic(apps::pic::ExchangeVariant::Reference, 1'250'711, 38'760);
}

TEST(Determinism, PicDecoupledMatchesPinnedVirtualTime) {
  expect_pinned_pic(apps::pic::ExchangeVariant::Decoupled, 1'059'561, 14'090);
}

TEST(Determinism, WordcountDecoupledMatchesPinnedVirtualTime) {
  apps::wordcount::WordcountConfig cfg;
  cfg.stride = 16;
  const auto result = apps::wordcount::run_decoupled(cfg, pinned_machine());
  EXPECT_EQ(util::from_seconds(result.seconds), 53'969'663'035);
}

}  // namespace
}  // namespace ds
