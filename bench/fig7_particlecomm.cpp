// Figure 7: weak-scaling of the particle communication in the PIC code.
// Reference: iterative six-neighbour forwarding with per-round global
// termination detection. Decoupled: stream to helper group, aggregate by
// destination, forward in one pass (max two hops per particle).
//
// Paper result: the reference's exchange time grows with scale while the
// decoupled exchange stays near-constant, reaching ~1.3x at 8,192 procs.
#include "apps/pic/pic_app.hpp"
#include "bench/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ds;
  const auto opt = util::BenchOptions::parse(argc, argv);
  bench::print_header("Fig. 7 — iPIC3D particle communication weak scaling",
                      "GEM-like setup, ~2e9 particles at 8,192 procs; "
                      "reference vs decoupling (alpha = 6.25%)", opt);

  util::Table table({"procs", "reference_s", "decoupled_s",
                     "ref_exchange_s", "dec_exchange_s", "reference/decoupled"});

  for (const int procs : bench::scaling_sweep(opt)) {
    double ref_comm = 0, dec_comm = 0;
    auto run = [&](apps::pic::ExchangeVariant variant, double* comm_out) {
      return bench::repeat(opt, procs, [&](int p, std::uint64_t seed) {
        apps::pic::PicConfig cfg;
        cfg.particles_per_rank = 250'000;
        cfg.steps = 8;
        cfg.stride = 16;
        // Full iPIC3D step work per particle (mover + moments + field) and
        // the paper's loose arrival integration in the decoupled variant.
        cfg.ns_mover_per_particle = 400.0;
        cfg.relaxed_arrival = true;
        cfg.seed = seed;
        const auto result =
            apps::pic::run_pic(variant, cfg, bench::beskow_like(p, seed, opt));
        *comm_out = result.comm_seconds;
        return result.seconds;  // execution time, as the paper plots
      });
    };
    const auto reference = run(apps::pic::ExchangeVariant::Reference, &ref_comm);
    const auto decoupled = run(apps::pic::ExchangeVariant::Decoupled, &dec_comm);
    table.add_row({std::to_string(procs),
                   util::Table::fmt_mean_std(reference.mean(), reference.stddev()),
                   util::Table::fmt_mean_std(decoupled.mean(), decoupled.stddev()),
                   util::Table::fmt(ref_comm, 3), util::Table::fmt(dec_comm, 3),
                   util::Table::fmt(reference.mean() / decoupled.mean())});
    std::printf("  procs=%d done: reference %.3f s, decoupled %.3f s\n", procs,
                reference.mean(), decoupled.mean());
  }
  bench::print_table(table);
  return 0;
}
