// Shared harness for the figure benches: the Beskow-like machine profile,
// the weak-scaling sweep, and mean ± stddev reporting over repeated seeds
// (the paper reports the average and standard deviation of ten runs; we
// default to DS_BENCH_REPS=3 — raise it for tighter error bars).
#pragma once

#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpi/machine.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ds::bench {

/// Network cost calibration by preset name (--network= / DS_BENCH_NETWORK).
[[nodiscard]] inline net::NetworkConfig network_preset(const std::string& name) {
  if (name == "aries") return net::NetworkConfig::aries_like();
  if (name == "ideal") return net::NetworkConfig::ideal();
  if (name == "slim") return net::NetworkConfig::slim_bisection();
  throw std::invalid_argument("bench: unknown network preset '" + name +
                              "' (expected aries, ideal, or slim)");
}

/// The machine model a bench run simulates: the named cost preset with the
/// named topology plugged in, the taper applied to the tier the family
/// contends on — node up/down links for the two-level machine (its only
/// shared tier), the pod/global tier for fat-tree and dragonfly. Flat
/// ignores the taper (it has no shared links).
[[nodiscard]] inline net::NetworkConfig machine_model(
    const util::BenchOptions& opt) {
  net::NetworkConfig network = network_preset(opt.network);
  network.topology = net::TopologyConfig::named(opt.topology);
  if (network.topology.kind == net::TopologyConfig::Kind::TwoLevel)
    network.topology.node_link_taper = opt.taper;
  else
    network.topology.tier_link_taper = opt.taper;
  return network;
}

/// Cray-XC40-flavoured machine: Aries-like fabric, production-node noise,
/// Lustre-like file system whose OST count grows with the allocation (a
/// larger job writes to more of the file system).
[[nodiscard]] inline mpi::MachineConfig beskow_like(int procs,
                                                    std::uint64_t seed) {
  mpi::MachineConfig config;
  config.world_size = procs;
  config.network = net::NetworkConfig::aries_like();
  config.engine.noise = sim::NoiseConfig::production_node();
  config.engine.seed = seed;
  config.filesystem.num_servers = std::max(16, procs / 8);
  return config;
}

/// beskow_like under the bench options' machine model: same costs and noise,
/// but the fabric gets the swept topology/network/taper. With the defaults
/// (flat/aries/1) this is byte-identical to the two-argument form, so
/// baselines are unchanged unless a sweep is asked for.
[[nodiscard]] inline mpi::MachineConfig beskow_like(
    int procs, std::uint64_t seed, const util::BenchOptions& opt) {
  mpi::MachineConfig config = beskow_like(procs, seed);
  config.network = machine_model(opt);
  return config;
}

/// The paper's weak-scaling x-axis: 32 ... 8192 processes.
[[nodiscard]] inline std::vector<int> scaling_sweep(const util::BenchOptions& opt) {
  std::vector<int> procs;
  const int limit = opt.fast ? std::min(opt.max_procs, 512) : opt.max_procs;
  for (int p = 32; p <= limit; p *= 2) procs.push_back(p);
  return procs;
}

/// Run `measure(procs, seed)` opt.repetitions times; returns the stats.
[[nodiscard]] inline util::RunningStats repeat(
    const util::BenchOptions& opt, int procs,
    const std::function<double(int, std::uint64_t)>& measure) {
  util::RunningStats stats;
  for (int r = 0; r < opt.repetitions; ++r)
    stats.add(measure(procs, opt.seed + static_cast<std::uint64_t>(r) * 1000003ull));
  return stats;
}

inline void print_header(const std::string& title, const std::string& paper_ref,
                         const util::BenchOptions& opt) {
  // Line-buffered even when redirected to a file: a run killed mid-sweep
  // (e.g. for memory) still leaves every row it printed.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("(max_procs=%d reps=%d topology=%s network=%s taper=%g%s; tune "
              "with DS_BENCH_* env or --max-procs= --reps= --topology= "
              "--network= --taper= --fast)\n\n",
              opt.max_procs, opt.repetitions, opt.topology.c_str(),
              opt.network.c_str(), opt.taper, opt.fast ? " FAST" : "");
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  print_header(title, paper_ref, util::BenchOptions::from_env());
}

inline void print_table(const util::Table& table) {
  std::fputs(table.to_text().c_str(), stdout);
  std::printf("\nCSV:\n%s\n", table.to_csv().c_str());
}

}  // namespace ds::bench
