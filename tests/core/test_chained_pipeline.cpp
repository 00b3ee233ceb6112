// Chained multi-stage pipelines: stage declaration, role dispatch, linked
// streams, stage-to-stage auto-termination, facade backpressure, and the
// tree termination protocol reached through the facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "common/machine_helpers.hpp"
#include "core/decouple.hpp"
#include "mpi/rank.hpp"

namespace ds::decouple {
namespace {

using mpi::Rank;

TEST(ChainedPipeline, ThreeStageChainRoundTripsAndAutoTerminates) {
  struct Sample {
    std::int32_t worker = -1;
    std::int32_t value = 0;
  };
  struct Partial {
    std::int32_t reducer = -1;
    std::int64_t sum = 0;
  };
  std::int64_t total = 0;
  std::uint64_t partials_seen = 0;
  testing::run_program(testing::tiny_machine(7), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world());
    const auto compute = pipeline.stage([](int r) { return r < 4; });
    const auto reduce = pipeline.stage([](int r) { return r == 4 || r == 5; });
    const auto sink = pipeline.stage(std::vector<int>{6});
    const auto samples = pipeline.stream_between<Sample>(compute, reduce);
    const auto partials = pipeline.stream_between<Partial>(reduce, sink);
    pipeline.run_stages({
        [&](Context& ctx) {
          EXPECT_EQ(ctx.stage_index(), 0);
          auto& out = ctx[samples];
          EXPECT_TRUE(out.is_producer());
          for (int i = 1; i <= 5; ++i)
            out.send(Sample{ctx.stage_member_index(), i});
          // No explicit terminate: propagation is the pipeline's job.
        },
        [&](Context& ctx) {
          EXPECT_EQ(ctx.stage_index(), 1);
          auto& in = ctx[samples];
          auto& out = ctx[partials];
          EXPECT_TRUE(in.is_consumer());
          EXPECT_TRUE(out.is_producer());
          std::int64_t sum = 0;
          in.on_receive(
              [&](const Element<Sample>& el) { sum += el.record.value; });
          in.operate();  // unblocks when the compute stage terminated
          out.send(Partial{ctx.stage_member_index(), sum});
        },
        [&](Context& ctx) {
          EXPECT_EQ(ctx.stage_index(), 2);
          auto& in = ctx[partials];
          in.on_receive([&](const Element<Partial>& el) {
            total += el.record.sum;
            ++partials_seen;
          });
          in.operate();  // unblocks when the reduce stage terminated
        },
    });
  });
  EXPECT_EQ(partials_seen, 2u);
  EXPECT_EQ(total, 4 * (1 + 2 + 3 + 4 + 5));  // every sample exactly once
}

TEST(ChainedPipeline, StageMetadataAndDispatchAreConsistent) {
  std::vector<int> dispatched(6, -1);
  testing::run_program(testing::tiny_machine(6), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world());
    const auto a = pipeline.stage(std::vector<int>{0, 2});
    const auto b = pipeline.stage(std::vector<int>{1, 4});
    const auto c = pipeline.stage(std::vector<int>{5});
    // Rank 3 belongs to no stage: it only participates in the collectives.
    auto link1 = pipeline.raw_stream_between(a, b, 16);
    auto link2 = pipeline.raw_stream_between(b, c, 16);
    auto note = [&](Context& ctx, int stage) {
      dispatched[static_cast<std::size_t>(ctx.parent_rank())] = stage;
      EXPECT_EQ(ctx.stage_index(), stage);
      EXPECT_EQ(ctx.stage_count(), 3);
      EXPECT_EQ(ctx.stage_size(0), 2);
      EXPECT_EQ(ctx.stage_size(1), 2);
      EXPECT_EQ(ctx.stage_size(2), 1);
      EXPECT_EQ(ctx.stage_ranks(1), (std::vector<int>{1, 4}));
    };
    pipeline.run_stages({
        [&](Context& ctx) {
          note(ctx, 0);
          EXPECT_EQ(ctx.stage_member_index(), ctx.parent_rank() == 0 ? 0 : 1);
          ctx[link1].send_synthetic(16);
        },
        [&](Context& ctx) {
          note(ctx, 1);
          auto& in = ctx[link1];
          auto& out = ctx[link2];
          in.on_receive([&](const RawElement&) { out.send_synthetic(16); });
          in.operate();
        },
        [&](Context& ctx) {
          note(ctx, 2);
          EXPECT_EQ(ctx[link2].operate(), 2u);  // forwarded, one per worker
        },
    });
  });
  EXPECT_EQ(dispatched, (std::vector<int>{0, 1, 0, -1, 1, 2}));
}

TEST(ChainedPipeline, RoutingInvariantAcrossChainShapes) {
  // No element lost or duplicated through a two-hop chain, whatever the
  // stage split.
  struct Shape {
    int compute, reduce, sink;
  };
  for (const Shape shape : {Shape{4, 2, 1}, Shape{6, 1, 1}, Shape{2, 3, 2}}) {
    const int world = shape.compute + shape.reduce + shape.sink;
    std::map<int, int> seen;
    testing::run_program(testing::tiny_machine(world), [&](Rank& self) {
      auto pipeline = Pipeline::over(self, self.world());
      const auto s0 = pipeline.stage([&](int r) { return r < shape.compute; });
      const auto s1 = pipeline.stage([&](int r) {
        return r >= shape.compute && r < shape.compute + shape.reduce;
      });
      const auto s2 = pipeline.stage(
          [&](int r) { return r >= shape.compute + shape.reduce; });
      const auto first = pipeline.stream_between<std::int32_t>(s0, s1);
      const auto second = pipeline.stream_between<std::int32_t>(s1, s2);
      pipeline.run_stages({
          [&](Context& ctx) {
            for (int i = 0; i < 7; ++i)
              ctx[first].send(ctx.stage_member_index() * 1000 + i);
          },
          [&](Context& ctx) {
            ctx[first].on_receive([&](const Element<std::int32_t>& el) {
              ctx[second].send(el.record);
            });
            ctx[first].operate();
          },
          [&](Context& ctx) {
            ctx[second].on_receive(
                [&](const Element<std::int32_t>& el) { ++seen[el.record]; });
            ctx[second].operate();
          },
      });
    });
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(shape.compute) * 7u);
    for (const auto& [id, count] : seen)
      EXPECT_EQ(count, 1) << "element " << id << " in shape " << shape.compute
                          << "/" << shape.reduce << "/" << shape.sink;
  }
}

TEST(ChainedPipeline, DirectedLinkTerminatesThroughAggregationTree) {
  // The facade path to the tree protocol: a Directed link from one producer
  // stage to a wide consumer stage must deliver everything, and the
  // producer must emit exactly one term message.
  constexpr int kConsumers = 9;
  std::uint64_t consumed = 0;
  std::uint64_t producer_terms = 0;
  std::uint64_t max_consumer_terms = 0;
  testing::run_program(testing::tiny_machine(1 + kConsumers), [&](Rank& self) {
    StreamOptions directed;
    directed.channel.mapping = Mapping::Directed;
    auto pipeline = Pipeline::over(self, self.world());
    const auto head = pipeline.stage(std::vector<int>{0});
    const auto fan = pipeline.stage([](int r) { return r > 0; });
    const auto link =
        pipeline.stream_between<std::int32_t>(head, fan, 0, directed);
    pipeline.run_stages({
        [&](Context& ctx) {
          auto& out = ctx[link];
          for (int c = 0; c < kConsumers; ++c) out.send_to(c, c);
          out.terminate();  // explicit, so the term count is observable here
          producer_terms = out.term_messages_sent();
        },
        [&](Context& ctx) {
          auto& in = ctx[link];
          in.on_receive([&](const Element<std::int32_t>& el) {
            EXPECT_EQ(el.record, ctx.stage_member_index());
          });
          consumed += in.operate();
          max_consumer_terms =
              std::max(max_consumer_terms, in.term_messages_sent());
        },
    });
  });
  EXPECT_EQ(consumed, static_cast<std::uint64_t>(kConsumers));
  EXPECT_EQ(producer_terms, 1u);  // one term to the aggregator, not C
  EXPECT_LE(max_consumer_terms, 2u);
}

TEST(ChainedPipeline, MaxInflightBackpressuresThroughTheFacade) {
  util::SimTime producer_done = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    StreamOptions throttled;
    throttled.channel.max_inflight = 2;
    auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
    const auto flow = pipeline.stream<std::int32_t>(0, throttled);
    pipeline.run(
        [&](Context& ctx) {
          auto& out = ctx[flow];
          for (int i = 0; i < 10; ++i) out.send(i);
          producer_done = self.now();
        },
        [&](Context& ctx) {
          auto& in = ctx[flow];
          in.on_receive([&](const Element<std::int32_t>&) {
            self.compute(util::microseconds(50));
          });
          EXPECT_EQ(in.operate(), 10u);
        });
  });
  // 8 of the 10 sends waited on a credit behind ~50 us of consumer compute.
  EXPECT_GE(producer_done, util::microseconds(350));
}

TEST(ChainedPipeline, MisdeclaredStagesAreRejected) {
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    {
      auto pipeline = Pipeline::over(self, self.world());
      (void)pipeline.stage(std::vector<int>{0, 1});
      EXPECT_THROW((void)pipeline.stage(std::vector<int>{1, 2}),
                   std::invalid_argument);  // overlap
      EXPECT_THROW((void)pipeline.stage(std::vector<int>{7}),
                   std::invalid_argument);  // outside parent
      EXPECT_THROW((void)pipeline.stage(std::vector<int>{}),
                   std::invalid_argument);  // empty
    }
    {
      auto pipeline = Pipeline::over(self, self.world());
      const auto only = pipeline.stage(std::vector<int>{0, 1});
      EXPECT_THROW(
          (void)pipeline.stream_between<std::int32_t>(only, only),
          std::invalid_argument);  // self-link
      EXPECT_THROW((void)pipeline.stream_between<std::int32_t>(only, StageHandle{}),
                   std::logic_error);  // foreign handle
      EXPECT_THROW(pipeline.run_stages({{}, {}}),
                   std::logic_error);  // one declared stage, two functions
    }
    {
      auto pipeline = Pipeline::over(self, self.world());
      (void)pipeline.stage(std::vector<int>{0, 1});
      (void)pipeline.stage(std::vector<int>{2, 3});
      EXPECT_THROW(pipeline.run_stages({{}}),
                   std::invalid_argument);  // function count mismatch
      pipeline.run_stages({{}, {}});        // no-op stages are fine
      EXPECT_THROW(pipeline.run_stages({{}, {}}), std::logic_error);  // reran
    }
  });
}

TEST(ChainedPipeline, DispatchRejectsTruncatedRecords) {
  // A consumer whose record type is wider than what is on the wire must get
  // a clean throw, not an overread. (Each rank declares its own Pipeline
  // object, so the mismatch can be staged deliberately.)
  struct Wide {
    std::int64_t a = 0;
    std::int64_t b = 0;
  };
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
    if (producer) {
      const auto narrow = pipeline.stream<std::int32_t>();
      pipeline.run([&](Context& ctx) { ctx[narrow].send(7); }, {});
    } else {
      const auto wide = pipeline.stream<Wide>();
      pipeline.run({}, [&](Context& ctx) {
        auto& in = ctx[wide];
        in.on_receive([](const Element<Wide>&) {});
        EXPECT_THROW(in.operate(), std::length_error);
        in.operate();  // drain the remaining termination
      });
    }
  });
}

}  // namespace
}  // namespace ds::decouple
