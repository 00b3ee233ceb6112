// perfbench — one measurement of one paper workload per process.
//
//   perfbench run     <workload> <seed>        untraced app run, timed
//   perfbench traced  <workload> <seed>        run_pic_traced (PIC only)
//   perfbench setup   <workload> <seed>        set-up, repeated (see mode_setup)
//   perfbench oracle  <workload> <seed>        small real-data oracle check
//   perfbench probes  <workload> <seed>        per-layer probes
//
// Each mode prints one JSON object as its last stdout line. A failed output
// check is reported in its "check" field (anything but "ok"); an exception
// prints {"error": ...} and exits 1. run.py owns repetition, medians and the
// benchmark's result line; keeping one measurement per process makes
// peak_rss_mb the peak of exactly one simulation.
#include "perfbench/perfbench.hpp"

#include <sys/resource.h>

#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "apps/pic/particles.hpp"
#include "apps/pic/pic_app.hpp"
#include "apps/wordcount/corpus.hpp"
#include "apps/wordcount/wordcount.hpp"
#include "bench/bench_common.hpp"
#include "core/channel.hpp"
#include "core/group_plan.hpp"
#include "mpi/rank.hpp"
#include "util/time.hpp"

namespace perfbench {

namespace pic = ds::apps::pic;
namespace wc = ds::apps::wordcount;

namespace {

// Rank counts: large enough that per-message costs growing with the world
// size show (2,048), and 1,024 for the decoupled PIC run, whose per-rank
// stream state makes it the memory-heavy workload (about 2.2 GB).
constexpr std::array<Workload, 3> kWorkloads{{
    {"pic_reference", App::PicReference, 2048},
    {"pic_decoupled", App::PicDecoupled, 1024},
    {"mapreduce_decoupled", App::WordcountDecoupled, 2048},
}};

bool is_pic(const Workload& w) noexcept {
  return w.app != App::WordcountDecoupled;
}

pic::ExchangeVariant variant_of(const Workload& w) {
  return w.app == App::PicReference ? pic::ExchangeVariant::Reference
                                    : pic::ExchangeVariant::Decoupled;
}

/// Fig. 7's configuration (bench/fig7_particlecomm.cpp).
pic::PicConfig pic_config(std::uint64_t seed) {
  pic::PicConfig cfg;
  cfg.particles_per_rank = 250'000;
  // Fig. 7 runs 8 steps; 4 halves a run so that more runs fit in a
  // measurement and the median steadies. Every step does the same work.
  cfg.steps = 4;
  cfg.stride = kHelperStride;
  cfg.ns_mover_per_particle = 400.0;
  cfg.relaxed_arrival = true;
  cfg.seed = seed;
  return cfg;
}

/// Fig. 5's configuration at alpha = 6.25% (bench/fig5_mapreduce.cpp).
wc::WordcountConfig wordcount_config(std::uint64_t seed) {
  wc::WordcountConfig cfg;
  cfg.corpus.seed = seed;
  cfg.stride = kHelperStride;
  return cfg;
}

}  // namespace

const Workload& workload_named(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("perfbench: unknown workload '" + name + "'");
}

std::size_t pic_element_bytes(const Workload& w) {
  const pic::PicConfig cfg = pic_config(0);
  const int workers =
      pic::compute_ranks_of(pic::ExchangeVariant::Decoupled, cfg, w.procs);
  const double per_worker = static_cast<double>(cfg.particles_per_rank) *
                            w.procs / static_cast<double>(workers);
  // Mean exit wave split over six face neighbours (pic_app.cpp).
  return static_cast<std::size_t>(cfg.exit_fraction * per_worker / 6.0) *
         cfg.particle_bytes;
}

std::size_t wordcount_element_bytes() {
  const wc::WordcountConfig cfg = wordcount_config(0);
  const wc::Corpus corpus(cfg.corpus, 1);
  return corpus.distinct_words(cfg.block_bytes) * sizeof(std::uint64_t);
}

double now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void JsonLine::key(const std::string& k) {
  if (!first_) body_ << ',';
  first_ = false;
  body_ << '"' << k << "\":";
}

std::string JsonLine::text() const {
  std::string text(1, '{');
  text += body_.str();
  text += '}';
  return text;
}

JsonLine& JsonLine::num(const std::string& k, double value) {
  key(k);
  if (std::isfinite(value))
    body_ << std::setprecision(17) << value;
  else
    body_ << "null";
  return *this;
}

JsonLine& JsonLine::str(const std::string& k, const std::string& value) {
  key(k);
  body_ << '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') body_ << '\\';
    body_ << (c == '\n' ? ' ' : c);
  }
  body_ << '"';
  return *this;
}

JsonLine& JsonLine::raw(const std::string& k, const std::string& json) {
  key(k);
  // Keep the object on one line: the documents embedded here put newlines
  // only between tokens.
  for (const char c : json) body_ << (c == '\n' ? ' ' : c);
  return *this;
}

namespace {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t expected_particles(const Workload& w) {
  return pic_config(0).particles_per_rank * static_cast<std::uint64_t>(w.procs);
}

/// Elements the map stage streams: one per block of every corpus file.
std::uint64_t expected_elements(const Workload& w, std::uint64_t seed) {
  const wc::WordcountConfig cfg = wordcount_config(seed);
  const wc::Corpus corpus(cfg.corpus, w.procs);
  std::uint64_t blocks = 0;
  for (int f = 0; f < corpus.file_count(); ++f)
    blocks += wc::blocks_of(cfg, corpus.file_bytes(f));
  return blocks;
}

std::string particle_check(const Workload& w, const pic::PicResult& r) {
  if (r.total_particles_end == expected_particles(w)) return "ok";
  return "particles not conserved: " + std::to_string(r.total_particles_end) +
         " != " + std::to_string(expected_particles(w));
}

JsonLine mode_run(const Workload& w, std::uint64_t seed) {
  JsonLine out;
  const auto machine = ds::bench::beskow_like(w.procs, seed);
  if (is_pic(w)) {
    const double t0 = now_s();
    const auto r = pic::run_pic(variant_of(w), pic_config(seed), machine);
    const double wall = now_s() - t0;
    out.num("wall_s", wall)
        .num("sim_makespan_s", r.seconds)
        .num("exchange_sim_s", r.comm_seconds)
        .num("peak_rss_mb", peak_rss_mb())
        .str("check", particle_check(w, r));
  } else {
    const double t0 = now_s();
    const auto r = wc::run_decoupled(wordcount_config(seed), machine);
    const double wall = now_s() - t0;
    const std::uint64_t expected = expected_elements(w, seed);
    out.num("wall_s", wall)
        .num("sim_makespan_s", r.seconds)
        .num("elements_streamed", static_cast<double>(r.elements_streamed))
        .num("peak_rss_mb", peak_rss_mb())
        .str("check", r.elements_streamed == expected
                          ? "ok"
                          : "streamed " + std::to_string(r.elements_streamed) +
                                " elements, expected " +
                                std::to_string(expected));
  }
  return out;
}

/// Virtual-time totals per span kind from the trace CSV
/// (rank,begin_ns,end_ns,label,kind,depth), as mean seconds per rank, plus
/// the number of compute spans (one per Process::compute call).
void add_span_totals(const std::string& csv, int world, JsonLine& out) {
  static constexpr std::array<std::string_view, 5> kKinds{
      "compute", "send_blocked", "recv_blocked", "collective", "stream_operate"};
  std::array<double, kKinds.size()> ns{};
  std::uint64_t compute_spans = 0;
  std::size_t pos = csv.find('\n') + 1;  // skip the header
  while (pos < csv.size()) {
    const std::size_t eol = csv.find('\n', pos);
    const std::size_t stop = eol == std::string::npos ? csv.size() : eol;
    const std::string_view line(csv.data() + pos, stop - pos);
    pos = stop + 1;
    // Labels may hold commas: take begin/end from the front, kind from the
    // back.
    const std::size_t c1 = line.find(',');
    const std::size_t c2 = line.find(',', c1 + 1);
    const std::size_t c3 = line.find(',', c2 + 1);
    const std::size_t last = line.rfind(',');
    const std::size_t before_last = line.rfind(',', last - 1);
    if (c3 == std::string_view::npos || before_last <= c2) continue;
    const std::string_view kind =
        line.substr(before_last + 1, last - before_last - 1);
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      if (kind != kKinds[k]) continue;
      std::int64_t begin = 0, end = 0;
      std::from_chars(line.data() + c1 + 1, line.data() + c2, begin);
      std::from_chars(line.data() + c2 + 1, line.data() + c3, end);
      ns[k] += static_cast<double>(end - begin);
      if (k == 0) ++compute_spans;
    }
  }
  for (std::size_t k = 0; k < kKinds.size(); ++k)
    out.num("span." + std::string(kKinds[k]) + "_s", ns[k] * 1e-9 / world);
  out.num("compute_spans", static_cast<double>(compute_spans));
}

JsonLine mode_traced(const Workload& w, std::uint64_t seed) {
  if (!is_pic(w))
    throw std::invalid_argument(
        "perfbench: traced runs need run_pic_traced (PIC workloads only)");
  const double t0 = now_s();
  const auto traced =
      pic::run_pic_traced(variant_of(w), pic_config(seed),
                          ds::bench::beskow_like(w.procs, seed));
  const double wall = now_s() - t0;
  JsonLine out;
  out.num("wall_s", wall)
      .num("sim_makespan_s", traced.result.seconds)
      .num("exchange_sim_s", traced.result.comm_seconds)
      .num("peak_rss_mb", peak_rss_mb())
      .str("check", particle_check(w, traced.result));
  add_span_totals(traced.csv_trace, w.procs, out);
  out.raw("metrics", traced.metrics_json);
  return out;
}

/// Set-up as the apps pay it, timed from outside: Machine construction, a
/// run whose program only spawns the ranks, and — for decoupled workloads —
/// Channel::create/free over the workload's interleaved plan. Repeats for
/// kSetupSeconds host seconds and at least kMinReps times, so a workload
/// whose set-up is slow still gives several samples.
JsonLine mode_setup(const Workload& w, std::uint64_t seed) {
  constexpr double kSetupSeconds = 0.25;
  constexpr int kMinReps = 3;
  constexpr int kMaxReps = 50;
  const bool channel = w.app != App::PicReference;
  std::ostringstream setup;
  const double start = now_s();
  for (int rep = 0; rep < kMinReps ||
                    (rep < kMaxReps && now_s() - start < kSetupSeconds);
       ++rep) {
    const double t0 = now_s();
    {
      ds::mpi::Machine machine(ds::bench::beskow_like(w.procs, seed));
      const auto plan =
          ds::stream::GroupPlan::interleaved(machine.world(), kHelperStride);
      machine.run([&](ds::mpi::Rank& self) {
        if (!channel) return;
        const int r = self.rank_in(self.world());
        auto ch = ds::stream::Channel::create(self, self.world(),
                                              plan.is_worker(r), plan.is_helper(r));
        ch.free(self);
      });
      setup << (rep ? "," : "") << std::setprecision(17) << now_s() - t0;
    }
  }
  JsonLine out;
  out.raw("setup_s", "[" + setup.str() + "]").str("check", "ok");
  return out;
}

/// One small real-data run of the workload's app against its sequential
/// oracle, on the benchmark's machine model and seed.
JsonLine mode_oracle(const Workload& w, std::uint64_t seed) {
  constexpr int kWorld = 16;
  auto machine = ds::bench::beskow_like(kWorld, seed);
  std::string check = "ok";
  if (is_pic(w)) {
    pic::PicConfig cfg;
    cfg.real_data = true;
    cfg.particles_per_rank = 120;
    cfg.steps = 4;
    cfg.dt = 0.07;
    cfg.stride = 4;
    cfg.seed = seed;
    const auto result = pic::run_pic(variant_of(w), cfg, machine);
    const int compute = pic::compute_ranks_of(variant_of(w), cfg, kWorld);
    const auto domain = pic::domain_of(compute);
    const auto expected = pic::oracle_advance(
        domain,
        pic::initialize_particles(
            domain, cfg.particles_per_rank * static_cast<std::uint64_t>(kWorld),
            cfg.seed),
        cfg.steps, cfg.dt);
    if (result.final_particles.size() != expected.size()) {
      check = "pic oracle: rank count differs";
    } else {
      for (std::size_t r = 0; r < expected.size(); ++r)
        if (pic::particle_signature(result.final_particles[r]) !=
            pic::particle_signature(expected[r])) {
          check = "pic oracle: rank " + std::to_string(r) + " differs";
          break;
        }
    }
  } else {
    wc::WordcountConfig cfg;
    cfg.corpus.seed = seed;
    cfg.corpus.sample_vocabulary = 101;
    cfg.block_bytes = 1 << 20;
    cfg.element_bytes = 4096;
    cfg.real_data = true;
    cfg.words_per_block_real = 300;
    cfg.stride = 4;
    const auto result = wc::run_decoupled(cfg, machine);
    if (result.histogram != wc::sequential_histogram(cfg, kWorld))
      check = "wordcount oracle: histogram differs from sequential_histogram";
  }
  JsonLine out;
  out.str("check", check);
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    if (argc < 4)
      throw std::invalid_argument(
          "usage: perfbench run|traced|setup|oracle|probes <workload> <seed>");
    const std::string mode = argv[1];
    const Workload& w = workload_named(argv[2]);
    const std::uint64_t seed = std::stoull(argv[3]);
    JsonLine out;
    if (mode == "run") {
      out = mode_run(w, seed);
    } else if (mode == "traced") {
      out = mode_traced(w, seed);
    } else if (mode == "setup") {
      out = mode_setup(w, seed);
    } else if (mode == "oracle") {
      out = mode_oracle(w, seed);
    } else if (mode == "probes") {
      run_probes(w, seed, out);
      out.str("check", "ok");
    } else {
      throw std::invalid_argument("perfbench: unknown mode '" + mode + "'");
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
  } catch (const std::exception& e) {
    JsonLine err;
    err.str("error", e.what());
    std::printf("%s\n", err.text().c_str());
    return 1;
  }
}
