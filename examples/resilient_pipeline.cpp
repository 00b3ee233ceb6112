// Resilient decoupled pipeline: surviving a consumer crash mid-run.
//
// Eight ranks: six workers stream records to two helpers under
// Pipeline::with_resilience. A fault plan crashes one helper partway
// through; the workers rebind its flows to the survivor, replay the
// unacknowledged epoch, and the run completes with every record delivered
// — the recovery path pic_io's writeback stage uses, in ~100 lines.
//
// Records the crashed helper consumed after its last durable epoch are
// replayed to the survivor, so they reach both helpers: the report counts
// them apart from coverage. The run fails unless every record reached some
// helper and no helper saw one record twice.
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/decouple.hpp"
#include "mpi/machine.hpp"
#include "mpi/rank.hpp"
#include "resilience/fault.hpp"

namespace {

using namespace ds;

constexpr int kWorkers = 6;
constexpr int kRecordsPerWorker = 500;
constexpr int kHelpers = 2;
constexpr int kRecords = kWorkers * kRecordsPerWorker;

struct Sample {
  std::int32_t worker = 0;
  std::int32_t seq = 0;
};

}  // namespace

int main() {
  mpi::MachineConfig config;
  config.world_size = kWorkers + kHelpers;
  // Crash helper rank 7 at 200 microseconds of virtual time — mid-stream.
  config.faults.crash(7, util::microseconds(200));
  mpi::Machine machine(config);

  std::uint64_t replayed = 0;
  std::uint32_t failovers = 0;
  // Deliveries per helper and record (worker * kRecordsPerWorker + seq).
  std::vector<std::vector<int>> seen(kHelpers, std::vector<int>(kRecords, 0));
  bool stray = false;  // a record naming no worker or sequence number

  machine.run([&](mpi::Rank& self) {
    auto pipeline = decouple::Pipeline::over(self, self.world())
                        .with_helper_ranks({kWorkers, kWorkers + 1})
                        .with_resilience(/*checkpoint_interval=*/64);
    const auto samples = pipeline.stream<Sample>();

    pipeline.run(
        [&](decouple::Context& ctx) {  // worker: produce paced records
          auto& out = ctx[samples];
          for (int i = 0; i < kRecordsPerWorker; ++i) {
            self.compute(util::nanoseconds(800), "produce");
            out.send(Sample{ctx.worker_index(), i});
          }
          replayed += out.replayed_elements();
          failovers += out.failovers();
        },
        [&](decouple::Context& ctx) {  // helper: consume until exhaustion
          auto& in = ctx[samples];
          auto& mine = seen[static_cast<std::size_t>(ctx.helper_index())];
          in.on_receive([&](const decouple::Element<Sample>& el) {
            const Sample& r = el.record;
            if (r.worker < 0 || r.worker >= kWorkers || r.seq < 0 ||
                r.seq >= kRecordsPerWorker) {
              stray = true;
              return;
            }
            ++mine[static_cast<std::size_t>(r.worker * kRecordsPerWorker +
                                            r.seq)];
          });
          in.operate();
        });
  });

  int covered = 0, redelivered = 0, duplicates = 0;
  for (int k = 0; k < kRecords; ++k) {
    int copies = 0;
    for (const auto& helper : seen) {
      const int n = helper[static_cast<std::size_t>(k)];
      copies += n;
      if (n > 1) duplicates += n - 1;  // one helper saw the record twice
    }
    if (copies > 0) ++covered;
    redelivered += copies > 1 ? copies - 1 : 0;
  }
  std::printf("resilient_pipeline: %d of %d records delivered, %d "
              "re-delivered after the crash, %u flow failovers, %llu "
              "elements replayed\n",
              covered, kRecords, redelivered, failovers,
              static_cast<unsigned long long>(replayed));
  const bool ok = covered == kRecords && duplicates == 0 && !stray;
  return ok ? 0 : 1;
}
