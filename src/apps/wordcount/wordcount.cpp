#include "apps/wordcount/wordcount.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "core/decouple.hpp"
#include "core/group_plan.hpp"
#include "mpi/rank.hpp"

namespace ds::apps::wordcount {

namespace {

using mpi::Rank;
using mpi::SendBuf;

constexpr double kKeyBytes = 4.0;    // serialized key id
constexpr double kCountBytes = 8.0;  // serialized count

[[nodiscard]] util::SimTime ns_cost(double ns_per_byte, std::uint64_t bytes) {
  return static_cast<util::SimTime>(ns_per_byte * static_cast<double>(bytes));
}

/// Map one rank's files block by block; `emit` is called once per block with
/// (file, block index, block bytes).
template <typename Emit>
void map_files(Rank& self, const WordcountConfig& cfg, const Corpus& corpus,
               int owner, int owners, Emit&& emit) {
  for (const int file : corpus.files_of(owner, owners)) {
    std::uint64_t remaining = corpus.file_bytes(file);
    int block = 0;
    while (remaining > 0) {
      const std::uint64_t chunk = std::min<std::uint64_t>(remaining, cfg.block_bytes);
      self.compute(ns_cost(cfg.map_ns_per_byte, chunk), "map");
      emit(file, block, chunk);
      remaining -= chunk;
      ++block;
    }
  }
}

void merge_into(std::vector<std::uint64_t>& accum,
                const std::vector<std::uint64_t>& part) {
  if (accum.size() < part.size()) accum.resize(part.size(), 0);
  for (std::size_t i = 0; i < part.size(); ++i) accum[i] += part[i];
}

}  // namespace

std::uint64_t blocks_of(const WordcountConfig& config, std::uint64_t bytes) {
  return (bytes + config.block_bytes - 1) / config.block_bytes;
}

std::vector<std::uint64_t> sequential_histogram(const WordcountConfig& config,
                                                int map_tasks) {
  const Corpus corpus(config.corpus, map_tasks);
  std::vector<std::uint64_t> hist(config.corpus.sample_vocabulary, 0);
  for (int file = 0; file < corpus.file_count(); ++file) {
    const auto blocks =
        static_cast<int>(blocks_of(config, corpus.file_bytes(file)));
    for (int b = 0; b < blocks; ++b)
      corpus.sample_block(file, b, config.words_per_block_real, hist);
  }
  return hist;
}

// --------------------------------------------------------------- reference --
WordcountResult run_reference(const WordcountConfig& config,
                              const mpi::MachineConfig& machine_config) {
  mpi::Machine machine(machine_config);
  const int size = machine.world_size();
  const Corpus corpus(config.corpus, size);
  WordcountResult result;

  const auto program = [&](Rank& self) {
    const int me = self.rank_in(self.world());
    const std::uint64_t my_bytes = corpus.bytes_of(me, size);

    // ---- map: every process maps its own files ----
    std::vector<std::uint64_t> local_hist;
    map_files(self, config, corpus, me, size,
              [&](int file, int block, std::uint64_t /*chunk*/) {
                if (config.real_data)
                  corpus.sample_block(file, block, config.words_per_block_real,
                                      local_hist);
              });

    // ---- key-set union via nonblocking allgatherv (overlaps with the
    //      local combine pass), then count reduction via nonblocking reduce.
    std::vector<std::size_t> key_counts(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) {
      key_counts[static_cast<std::size_t>(r)] =
          config.real_data
              ? config.corpus.sample_vocabulary * static_cast<std::size_t>(kKeyBytes)
              : corpus.distinct_words(corpus.bytes_of(r, size)) *
                    static_cast<std::size_t>(kKeyBytes);
    }
    std::vector<std::uint32_t> my_keys;
    mpi::Request keys_req;
    if (config.real_data) {
      my_keys.resize(config.corpus.sample_vocabulary);
      for (std::uint32_t k = 0; k < my_keys.size(); ++k) my_keys[k] = k;
      keys_req = self.iallgatherv(
          self.world(), SendBuf::of(my_keys.data(), my_keys.size()),
          /*out=*/nullptr, key_counts);
    } else {
      keys_req = self.iallgatherv(
          self.world(),
          SendBuf::synthetic(key_counts[static_cast<std::size_t>(me)]),
          /*out=*/nullptr, key_counts);
    }

    // Local combine of intermediate pairs overlaps the allgatherv.
    self.compute(ns_cost(config.reduce_ns_per_byte, my_bytes), "reduce");
    self.wait(keys_req);

    // Count reduction over the union key set.
    if (config.real_data) {
      local_hist.resize(config.corpus.sample_vocabulary, 0);
      std::vector<std::uint64_t> global(local_hist.size(), 0);
      self.reduce(self.world(), /*root=*/0,
                  SendBuf::of(local_hist.data(), local_hist.size()),
                  global.data(), mpi::reduce_sum<std::uint64_t>());
      if (me == 0) result.histogram = std::move(global);
    } else {
      const std::size_t union_bytes =
          corpus.union_distinct_words() * static_cast<std::size_t>(kCountBytes);
      self.reduce(self.world(), /*root=*/0, SendBuf::synthetic(union_bytes),
                  nullptr, {});
    }
  };

  result.seconds = util::to_seconds(machine.run(program));
  return result;
}

// --------------------------------------------------------------- decoupled --
WordcountResult run_decoupled(const WordcountConfig& config,
                              const mpi::MachineConfig& machine_config) {
  mpi::Machine machine(machine_config);
  const int size = machine.world_size();
  const Corpus corpus(config.corpus, size);
  WordcountResult result;

  const stream::GroupPlan plan =
      stream::GroupPlan::interleaved(machine.world(), config.stride);
  if (plan.helper_count() < 1)
    throw std::invalid_argument("wordcount decoupled: need >= 1 helper");
  // The reduce group is itself decoupled into local reducers plus one master
  // that aggregates global results (paper Sec. IV-B) — a three-stage chain
  // map -> reduce -> master. A single-helper group degenerates to the
  // two-stage chain map -> master: workers stream straight to it.
  const bool master_only = plan.helper_count() == 1;
  const int master = plan.helpers().front();
  const int workers = plan.worker_count();

  const auto program = [&](Rank& self) {
    const std::size_t vocab_bytes =
        config.corpus.sample_vocabulary * static_cast<std::size_t>(kCountBytes);
    // A block's partial histogram occupies ~8 bytes per distinct word.
    const std::size_t max_histogram_bytes =
        corpus.distinct_words(config.block_bytes) *
        static_cast<std::size_t>(kCountBytes);
    const std::size_t element_capacity =
        config.real_data ? std::max(config.element_bytes, vocab_bytes)
                         : std::max(config.element_bytes, max_histogram_bytes);

    // The chain: map stage -> reduce stage -> master stage, linked by one
    // stream per hop (the reduce hop is absent when the reduce group is a
    // single process). Stage declarations replace the hand-rolled role
    // predicates; auto-termination propagates map -> reduce -> master.
    auto pipeline = decouple::Pipeline::over(self, self.world());
    const auto map_stage =
        pipeline.stage({plan.workers().begin(), plan.workers().end()});
    decouple::StageHandle reduce_stage;
    if (!master_only)  // every helper but the master (helpers().front())
      reduce_stage = pipeline.stage(
          {std::next(plan.helpers().begin()), plan.helpers().end()});
    const auto master_stage = pipeline.stage(std::vector<int>{master});
    // Both hops ride the transport defaults: coalescing packs the many
    // small-to-medium histogram records injected back to back into shared
    // frames (vocabulary-sized real blocks travel alone, one per frame), and
    // self-tuning keeps the frame budget matched to the block-size mix while
    // the reducers ack whole frames instead of per element. Nothing here
    // needs pinning — set StreamOptions::channel.coalesce_budget = 0 on a
    // hop to recover the paper's one-message-per-element traffic for
    // comparison runs.
    const auto blocks = pipeline.raw_stream_between(
        map_stage, master_only ? master_stage : reduce_stage, element_capacity);
    decouple::RawStreamHandle updates;
    if (!master_only)
      updates = pipeline.raw_stream_between(reduce_stage, master_stage,
                                            element_capacity);

    std::vector<std::uint64_t> global_hist;  // master-side result

    const auto map_fn = [&](decouple::Context& ctx) {
      auto& s1 = ctx[blocks];
      std::vector<std::uint64_t> block_hist;
      map_files(self, config, corpus, ctx.stage_member_index(), workers,
                [&](int file, int block, std::uint64_t chunk) {
                  if (config.real_data) {
                    block_hist.assign(config.corpus.sample_vocabulary, 0);
                    corpus.sample_block(file, block,
                                        config.words_per_block_real,
                                        block_hist);
                    s1.send_items(block_hist.data(), block_hist.size());
                  } else {
                    s1.send_synthetic(corpus.distinct_words(chunk) *
                                      static_cast<std::size_t>(kCountBytes));
                  }
                });
      result.elements_streamed += s1.elements_sent();
    };

    const auto reduce_fn = [&](decouple::Context& ctx) {
      std::vector<std::uint64_t> local_hist;  // reducer-side partial
      auto& s1 = ctx[blocks];
      auto& s2 = ctx[updates];
      s1.on_receive([&](const decouple::RawElement& el) {
        self.compute(ns_cost(config.histogram_merge_ns_per_byte, el.bytes),
                     "reduce");
        if (config.real_data && el.data) {
          std::vector<std::uint64_t> part(el.bytes / sizeof(std::uint64_t));
          std::memcpy(part.data(), el.data, part.size() * sizeof(std::uint64_t));
          merge_into(local_hist, part);
          if (!config.aggregate_reduce_group)
            s2.send_items(part.data(), part.size());
        } else if (!config.aggregate_reduce_group) {
          s2.send_synthetic(static_cast<std::size_t>(
              config.forward_fraction * static_cast<double>(el.bytes)));
        }
      });
      s1.operate();
      if (config.aggregate_reduce_group) {
        if (config.real_data) {
          local_hist.resize(config.corpus.sample_vocabulary, 0);
          s2.send_items(local_hist.data(), local_hist.size());
        } else {
          s2.send_synthetic(vocab_bytes);
        }
      }
      // The updates stream terminates via RAII when this stage returns.
    };

    const auto master_fn = [&](decouple::Context& ctx) {
      auto& in = master_only ? ctx[blocks] : ctx[updates];
      in.on_receive([&](const decouple::RawElement& el) {
        self.compute(ns_cost(config.histogram_merge_ns_per_byte, el.bytes),
                     "reduce");
        if (config.real_data && el.data) {
          std::vector<std::uint64_t> part(el.bytes / sizeof(std::uint64_t));
          std::memcpy(part.data(), el.data, part.size() * sizeof(std::uint64_t));
          merge_into(global_hist, part);
        }
      });
      in.operate();
      if (config.real_data) result.histogram = std::move(global_hist);
    };

    if (master_only)
      pipeline.run_stages({map_fn, master_fn});
    else
      pipeline.run_stages({map_fn, reduce_fn, master_fn});
  };

  result.seconds = util::to_seconds(machine.run(program));
  return result;
}

}  // namespace ds::apps::wordcount
