// Chained multi-stage pipelines (compute -> reduce -> writeback).
//
// Pipeline::stage() partitions the communicator into an ordered chain of
// role groups; stream_between() links consecutive stages, making an
// intermediate stage consumer of one typed stream and producer of the next.
// Auto-termination propagates down the chain: when the compute stage
// returns, its stream terminates, the reduce stage's operate() unblocks and
// finishes, its own stream terminates, and so on — no explicit termination
// calls anywhere.
//
// The example also shows StreamOptions::channel.max_inflight, the facade's
// credit-based backpressure: compute ranks may run at most 8 unconsumed
// samples ahead of the reducers, so a slow consumer throttles producers
// instead of letting queues grow without bound.
//
// Run: ./chained_pipeline
#include <cstdio>
#include <vector>

#include "core/decouple.hpp"
#include "mpi/rank.hpp"

using namespace ds;

namespace {
constexpr int kProcs = 12;
constexpr int kSamplesPerWorker = 64;
}  // namespace

int main() {
  mpi::Machine machine(mpi::MachineConfig::testbed(kProcs));
  double reduced_total = 0.0;
  std::uint64_t written = 0;

  const auto makespan = machine.run([&](mpi::Rank& self) {
    struct Sample {
      std::int32_t worker;
      double value;
    };
    struct Partial {
      std::int32_t reducer;
      double sum;
    };

    // Stages: 9 compute ranks -> 2 reducers -> 1 writer.
    auto pipeline = decouple::Pipeline::over(self, self.world());
    const auto compute = pipeline.stage([](int r) { return r < 9; });
    const auto reduce = pipeline.stage([](int r) { return r == 9 || r == 10; });
    const auto write = pipeline.stage([](int r) { return r == 11; });

    decouple::StreamOptions throttled;
    throttled.channel.max_inflight = 8;  // backpressure: <= 8 samples ahead
    const auto samples =
        pipeline.stream_between<Sample>(compute, reduce, 0, throttled);
    const auto partials = pipeline.stream_between<Partial>(reduce, write);

    pipeline.run_stages({
        [&](decouple::Context& ctx) {  // compute stage
          auto& out = ctx[samples];
          for (int i = 0; i < kSamplesPerWorker; ++i) {
            self.compute(util::microseconds(5), "produce");
            out.send(Sample{ctx.stage_member_index(), 0.5 * i});
          }
        },
        [&](decouple::Context& ctx) {  // reduce stage
          auto& in = ctx[samples];
          auto& out = ctx[partials];
          double sum = 0.0;
          in.on_receive([&](const decouple::Element<Sample>& el) {
            self.compute(util::microseconds(20), "reduce");  // slow consumer
            sum += el.record.value;
          });
          in.operate();  // returns when the compute stage terminated
          out.send(Partial{ctx.stage_member_index(), sum});
        },
        [&](decouple::Context& ctx) {  // writeback stage
          auto& in = ctx[partials];
          in.on_receive([&](const decouple::Element<Partial>& el) {
            reduced_total += el.record.sum;
            ++written;
          });
          in.operate();  // returns when the reduce stage terminated
        },
    });
  });

  std::printf("chained pipeline: %llu partials, total %.1f "
              "(expect %d workers x sum 0..%d of 0.5k = %.1f)\n",
              static_cast<unsigned long long>(written), reduced_total, 9,
              kSamplesPerWorker - 1,
              9 * 0.5 * (kSamplesPerWorker - 1) * kSamplesPerWorker / 2);
  std::printf("virtual makespan: %.3f ms\n", util::to_seconds(makespan) * 1e3);
  return 0;
}
