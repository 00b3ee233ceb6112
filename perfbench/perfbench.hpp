// Shared pieces of the paper-workload benchmark program: the workload table,
// the apps' stream element sizes, a host clock and a one-line JSON writer.
// Every simulated machine is bench::beskow_like(procs, seed): the figure
// benches' default flat topology with the Aries-like fabric and
// production-node noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

namespace perfbench {

enum class App { PicReference, PicDecoupled, WordcountDecoupled };

struct Workload {
  const char* name;
  App app;
  int procs;  ///< simulated world size
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const Workload& workload_named(const std::string& name);

/// One helper per 16 ranks (alpha = 6.25%), as in Figs. 5 and 7.
constexpr int kHelperStride = 16;

/// Stream element sizes the two apps inject, in wire bytes: a PIC worker's
/// per-neighbour particle batch and a word-count block histogram.
[[nodiscard]] std::size_t pic_element_bytes(const Workload& w);
[[nodiscard]] std::size_t wordcount_element_bytes();

/// Host clock, seconds (steady).
[[nodiscard]] double now_s() noexcept;

/// Builds one flat JSON object; numbers keep all 17 significant digits so
/// virtual times compare bit for bit.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double value);
  JsonLine& str(const std::string& key, const std::string& value);
  /// Inserts `json` verbatim as the value (a nested document).
  JsonLine& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string text() const;

 private:
  void key(const std::string& k);
  std::ostringstream body_;
  bool first_ = true;
};

/// Host-timed calls into each layer's public API at the workload's rank
/// count (probes.cpp). Adds one "probe.*" entry per probe to `out`.
void run_probes(const Workload& w, std::uint64_t seed, JsonLine& out);

}  // namespace perfbench
