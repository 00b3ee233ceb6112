#include "core/decouple.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/machine_helpers.hpp"
#include "mpi/machine.hpp"
#include "mpi/rank.hpp"

namespace ds::decouple {
namespace {

using mpi::Rank;

struct Sample {
  std::int32_t source = -1;
  std::int32_t tick = -1;
  double value = 0.0;
};

TEST(Pipeline, DispatchesRolesAndRoundTripsTypedRecords) {
  std::vector<int> consumed(8, 0);
  double sum = 0.0;
  testing::run_program(testing::tiny_machine(8), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world()).with_stride(4);
    auto samples = pipeline.stream<Sample>();
    pipeline.run(
        [&](Context& ctx) {
          EXPECT_TRUE(ctx.is_worker());
          EXPECT_EQ(ctx.worker_count(), 6);
          EXPECT_EQ(ctx.helper_count(), 2);
          EXPECT_EQ(ctx.helper_index(), -1);
          auto& s = ctx[samples];
          EXPECT_TRUE(s.is_producer());
          EXPECT_FALSE(s.is_consumer());
          for (int t = 0; t < 3; ++t)
            s.send(Sample{ctx.parent_rank(), t, 0.5 * t});
          // No terminate(): the pipeline handles it when this returns.
        },
        [&](Context& ctx) {
          EXPECT_TRUE(ctx.is_helper());
          EXPECT_EQ(ctx.worker_index(), -1);
          auto& s = ctx[samples];
          s.on_receive([&](const Element<Sample>& el) {
            EXPECT_FALSE(el.synthetic);
            EXPECT_EQ(el.payload_bytes, 0u);
            EXPECT_GE(el.producer, 0);
            consumed[static_cast<std::size_t>(el.record.source)]++;
            sum += el.record.value;
          });
          EXPECT_EQ(s.operate() % 3, 0u);  // every producer sent 3
        });
  });
  for (int r = 0; r < 8; ++r) EXPECT_EQ(consumed[static_cast<std::size_t>(r)], r % 4 == 3 ? 0 : 3);
  EXPECT_DOUBLE_EQ(sum, 6 * (0.0 + 0.5 + 1.0));
}

TEST(Pipeline, TypedPayloadsCrossTheWire) {
  struct Header {
    std::int32_t count = 0;
    std::int32_t tag = 0;
  };
  std::vector<double> received;
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_helper_ranks({2});
    auto data = pipeline.stream<Header>(/*max_payload_bytes=*/4 * sizeof(double));
    pipeline.run(
        [&](Context& ctx) {
          auto& s = ctx[data];
          const std::vector<double> body{1.0, 2.0, 3.0};
          s.send(Header{3, ctx.parent_rank()}, body.data(), body.size());
        },
        [&](Context& ctx) {
          auto& s = ctx[data];
          s.on_receive([&](const Element<Header>& el) {
            ASSERT_EQ(el.record.count, 3);
            std::vector<double> body;
            el.payload_to(body, static_cast<std::size_t>(el.record.count));
            for (const double v : body) received.push_back(v);
          });
          s.operate();
        });
  });
  ASSERT_EQ(received.size(), 6u);
  EXPECT_DOUBLE_EQ(std::accumulate(received.begin(), received.end(), 0.0), 12.0);
}

TEST(Pipeline, DirectedStreamsAndModeledBodies) {
  struct Note {
    std::int32_t dest = -1;
    std::int32_t payload_doubles = 0;
  };
  std::vector<std::uint64_t> per_helper(2, 0);
  testing::run_program(testing::tiny_machine(6), [&](Rank& self) {
    StreamOptions options;
    options.channel.mapping = Mapping::Directed;
    auto pipeline = Pipeline::over(self, self.world()).with_stride(3);
    auto notes = pipeline.stream<Note>(64 * sizeof(double), options);
    pipeline.run(
        [&](Context& ctx) {
          auto& s = ctx[notes];
          // Worker w talks to its block helper, body modeled (no real bytes).
          const int target = ctx.helper_of(ctx.worker_index());
          s.send_modeled_to(target, Note{target, 64}, 64 * sizeof(double));
        },
        [&](Context& ctx) {
          auto& s = ctx[notes];
          s.on_receive([&](const Element<Note>& el) {
            // The record is real even when the body is modeled.
            EXPECT_EQ(el.record.dest, ctx.helper_index());
            EXPECT_EQ(el.payload_bytes, 64 * sizeof(double));
            per_helper[static_cast<std::size_t>(ctx.helper_index())]++;
          });
          s.operate();
        });
  });
  // 4 workers, helper_of: workers 0,1 -> helper 0; workers 2,3 -> helper 1.
  EXPECT_EQ(per_helper[0], 2u);
  EXPECT_EQ(per_helper[1], 2u);
}

TEST(Pipeline, RawStreamsCarryBytesAndSynthetics) {
  std::uint64_t real_bytes = 0, synthetic_bytes = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
    auto bytes = pipeline.raw_stream(256);
    pipeline.run(
        [&](Context& ctx) {
          auto& s = ctx[bytes];
          const std::vector<std::uint32_t> words{1, 2, 3, 4};
          s.send_items(words.data(), words.size());
          s.send_synthetic(128);
          EXPECT_EQ(s.elements_sent(), 2u);
        },
        [&](Context& ctx) {
          auto& s = ctx[bytes];
          s.on_receive([&](const RawElement& el) {
            if (el.synthetic)
              synthetic_bytes += el.bytes;
            else
              real_bytes += el.bytes;
          });
          s.operate();
        });
  });
  EXPECT_EQ(real_bytes, 4 * sizeof(std::uint32_t));
  EXPECT_EQ(synthetic_bytes, 128u);
}

TEST(Pipeline, AdaptiveStreamBatchesRecords) {
  std::uint64_t elements = 0, records = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    AdaptiveConfig adaptive;
    adaptive.initial_records = 4;
    adaptive.max_records = 64;
    auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
    auto flow = pipeline.adaptive_stream(/*record_bytes=*/32, adaptive);
    pipeline.run(
        [&](Context& ctx) {
          auto& s = ctx[flow];
          EXPECT_TRUE(s.is_adaptive());
          for (int i = 0; i < 103; ++i) s.push();
          EXPECT_EQ(s.records_sent(), 103u);
          // The trailing partial batch flushes via RAII termination.
        },
        [&](Context& ctx) {
          auto& s = ctx[flow];
          s.on_receive([&](const RawElement& el) {
            ++elements;
            records += adaptive_record_count(el);
          });
          s.operate();
        });
  });
  EXPECT_EQ(records, 103u);
  EXPECT_GT(elements, 0u);
  EXPECT_LE(elements, 103u / 4 + 1);
}

TEST(Pipeline, CustomEndpointPredicatesOverrideTheSplit) {
  // Three roles out of two groups: helpers split into one master (last
  // helper) and reducers, as the wordcount reduce group does.
  std::uint64_t master_received = 0;
  testing::run_program(testing::tiny_machine(6), [&](Rank& self) {
    const stream::GroupPlan plan = stream::GroupPlan::interleaved(self.world(), 3);
    const int master = plan.helpers().back();
    auto is_reducer = [plan, master](int r) {
      return plan.is_helper(r) && r != master;
    };
    StreamOptions down;  // workers -> reducers
    down.consumers = is_reducer;
    StreamOptions up;  // reducers -> master
    up.producers = is_reducer;
    up.consumers = [master](int r) { return r == master; };

    auto pipeline = Pipeline::over(self, self.world()).with_plan(plan);
    auto first = pipeline.raw_stream(64, down);
    auto second = pipeline.raw_stream(64, up);
    pipeline.run(
        [&](Context& ctx) { ctx[first].send_synthetic(64); },
        [&](Context& ctx) {
          const bool reducer = is_reducer(ctx.parent_rank());
          if (reducer) {
            auto& in = ctx[first];
            auto& out = ctx[second];
            in.on_receive(
                [&](const RawElement& el) { out.send_synthetic(el.bytes); });
            in.operate();
          } else {
            auto& in = ctx[second];
            in.on_receive([&](const RawElement&) { ++master_received; });
            in.operate();
          }
        });
  });
  EXPECT_EQ(master_received, 4u);  // one element per worker, forwarded
}

TEST(Pipeline, WorkerCommSpansExactlyTheWorkers) {
  testing::run_program(testing::tiny_machine(8), [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_stride(4).with_worker_comm();
    auto unused = pipeline.raw_stream(8);
    (void)unused;
    pipeline.run(
        [&](Context& ctx) {
          ASSERT_TRUE(ctx.worker_comm().valid());
          EXPECT_EQ(ctx.worker_comm().size(), ctx.worker_count());
          EXPECT_EQ(ctx.self().rank_in(ctx.worker_comm()), ctx.worker_index());
          std::uint64_t one = 1, total = 0;
          ctx.self().allreduce(ctx.worker_comm(), mpi::SendBuf::of(&one, 1),
                               &total, mpi::reduce_sum<std::uint64_t>());
          EXPECT_EQ(total, static_cast<std::uint64_t>(ctx.worker_count()));
        },
        [&](Context& ctx) { EXPECT_FALSE(ctx.worker_comm().valid()); });
  });
}

TEST(Pipeline, EarlyTerminateStaysIdempotentUnderRaii) {
  std::uint64_t consumed = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
    auto flow = pipeline.raw_stream(32);
    pipeline.run(
        [&](Context& ctx) {
          ctx[flow].send_synthetic(32);
          ctx[flow].terminate();  // explicit, before the RAII pass
        },
        [&](Context& ctx) {
          ctx[flow].on_receive([&](const RawElement&) { ++consumed; });
          consumed += 0 * ctx[flow].operate();
        });
  });
  EXPECT_EQ(consumed, 1u);
}

TEST(Pipeline, ConsumersLeavingEarlyLeaveNoTermUnmatched) {
  // The PIC close-notification shape: each worker leaves the Directed
  // backflow as soon as it holds the note it expects — before the helpers'
  // collective term, sent only once their program returns, can reach it.
  // Teardown absorbs (and forwards) those terms, so a fault-free run ends
  // with every pooled send matched.
  mpi::Machine machine(testing::tiny_machine(12));
  std::vector<int> notes(9, 0);
  machine.run([&](Rank& self) {
    StreamOptions back_options;
    back_options.direction = Direction::ToWorkers;
    back_options.channel.mapping = Mapping::Directed;
    auto pipeline = Pipeline::over(self, self.world()).with_stride(4);
    auto outflow = pipeline.stream<Sample>();
    auto backflow = pipeline.stream<Sample>(0, back_options);
    pipeline.run(
        [&](Context& ctx) {
          const int w = ctx.worker_index();
          auto& in = ctx[backflow];
          int seen = 0;
          in.on_receive([&](const Element<Sample>& el) {
            EXPECT_EQ(el.record.source, w);
            ++seen;
          });
          ctx[outflow].send(Sample{w, 0, 1.0});
          in.operate_while([&] { return seen < 1; });
          notes[static_cast<std::size_t>(w)] = seen;
        },
        [&](Context& ctx) {
          auto& back = ctx[backflow];
          ctx[outflow].on_receive([&](const Element<Sample>& el) {
            back.send_to(el.record.source, el.record);
          });
          ctx[outflow].operate();
        });
  });
  EXPECT_EQ(notes, std::vector<int>(9, 1));
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

TEST(Pipeline, DataAfterAnEarlyLeaveIsRejectedAtTeardown) {
  // Absorbing a left stream's termination never dispatches to the handler
  // (it may capture the finished role function's locals): an element still
  // in flight then is a protocol error.
  int handled = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    StreamOptions back_options;
    back_options.direction = Direction::ToWorkers;
    auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
    auto outflow = pipeline.stream<Sample>();
    auto backflow = pipeline.stream<Sample>(0, back_options);
    const auto run = [&] {
      pipeline.run(
          [&](Context& ctx) {
            auto& in = ctx[backflow];
            in.on_receive([&](const Element<Sample>&) { ++handled; });
            ctx[outflow].send(Sample{0, 0, 1.0});
            in.operate_while([&] { return handled < 1; });
          },
          [&](Context& ctx) {
            auto& back = ctx[backflow];
            ctx[outflow].on_receive([&](const Element<Sample>& el) {
              back.send(el.record);
              back.send(el.record);  // one more than the worker waits for
            });
            ctx[outflow].operate();
          });
    };
    if (self.world_rank() == 0) {
      EXPECT_THROW(run(), std::logic_error);
    } else {
      run();
    }
  });
  EXPECT_EQ(handled, 1);
}

TEST(Pipeline, DuplicateHelperRanksCollapseToOneHelper) {
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_helper_ranks({2, 2, 2});
    auto flow = pipeline.raw_stream(16);
    pipeline.run(
        [&](Context& ctx) {
          EXPECT_EQ(ctx.helper_count(), 1);
          EXPECT_EQ(ctx.worker_count(), 3);
          EXPECT_EQ(ctx.helper_of(ctx.worker_index()), 0);
          ctx[flow].send_synthetic(16);
        },
        [&](Context& ctx) {
          EXPECT_EQ(ctx.helper_index(), 0);
          EXPECT_EQ(ctx[flow].operate(), 3u);
        });
  });
}

TEST(Element, PayloadToRejectsCountsBeyondTheWireSize) {
  const std::array<double, 2> body{1.0, 2.0};
  Element<std::int32_t> el;
  el.payload = reinterpret_cast<const std::byte*>(body.data());
  el.payload_bytes = sizeof(body);
  std::vector<double> out;
  el.payload_to(out, 2);  // exactly the wire size: fine
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  // A record header claiming more items than the element carries must not
  // turn into an overread.
  EXPECT_THROW(el.payload_to(out, 3), std::length_error);
}

TEST(Pipeline, MisuseIsRejected) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    {
      auto pipeline = Pipeline::over(self, self.world());
      EXPECT_THROW(pipeline.run({}, {}), std::logic_error);  // no split
    }
    {
      auto pipeline = Pipeline::over(self, self.world());
      EXPECT_THROW(pipeline.with_helper_ranks({5}), std::invalid_argument);
      EXPECT_THROW(pipeline.with_helper_ranks({0, 1}), std::invalid_argument);
      // A plan computed for a wider communicator names ranks outside this one.
      const mpi::Comm wider(/*context=*/99, mpi::Group::world(8));
      EXPECT_THROW(pipeline.with_plan(stream::GroupPlan::interleaved(wider, 4)),
                   std::invalid_argument);
    }
    {
      auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
      EXPECT_THROW((void)pipeline.with_stride(2), std::logic_error);
      pipeline.run(
          [&](Context& ctx) {
            EXPECT_THROW((void)ctx.worker_comm(), std::logic_error);
          },
          {});
      EXPECT_THROW((void)pipeline.raw_stream(8), std::logic_error);
      EXPECT_THROW(pipeline.run({}, {}), std::logic_error);  // reran
    }
  });
}

TEST(Pipeline, StreamOptionsLeaveChannelIdsToThePipeline) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
    StreamOptions options;
    options.channel.channel_id = 3;
    EXPECT_THROW((void)pipeline.stream<Sample>(0, options),
                 std::invalid_argument);
    EXPECT_THROW((void)pipeline.raw_stream(8, options), std::invalid_argument);
  });
}

TEST(Pipeline, WithResilienceComposesWithPerStreamSettings) {
  // A stream that sets its own checkpoint interval keeps its settings;
  // every other stream takes the pipeline's interval, and its own manual
  // durability is ORed with the pipeline's.
  struct Seen {
    std::uint32_t interval = 0;
    bool manual = false;
  };
  std::array<Seen, 4> seen{};
  const auto record = [&](Context& ctx, std::size_t at, StreamBase& s) {
    if (ctx.parent_rank() == 0)
      seen[at] = {s.channel().config().checkpoint_interval,
                  s.channel().config().manual_durability};
    if (s.is_consumer()) s.operate();
  };
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    {
      auto pipeline = Pipeline::over(self, self.world())
                          .with_stride(2)
                          .with_resilience(64, /*manual_durability=*/true);
      StreamOptions own;
      own.channel.checkpoint_interval = 8;
      const auto kept = pipeline.stream<Sample>(0, own);
      const auto defaulted = pipeline.stream<Sample>();
      const auto role = [&](Context& ctx) {
        record(ctx, 0, ctx[kept]);
        record(ctx, 1, ctx[defaulted]);
      };
      pipeline.run(role, role);
    }
    {
      auto pipeline = Pipeline::over(self, self.world())
                          .with_stride(2)
                          .with_resilience(32);
      StreamOptions manual;
      manual.channel.manual_durability = true;
      const auto ored = pipeline.stream<Sample>(0, manual);
      const auto plain = pipeline.stream<Sample>();
      const auto role = [&](Context& ctx) {
        record(ctx, 2, ctx[ored]);
        record(ctx, 3, ctx[plain]);
      };
      pipeline.run(role, role);
    }
  });
  EXPECT_EQ(seen[0].interval, 8u);  // the stream's own interval wins
  EXPECT_FALSE(seen[0].manual);
  EXPECT_EQ(seen[1].interval, 64u);
  EXPECT_TRUE(seen[1].manual);      // the pipeline's true is ORed in
  EXPECT_EQ(seen[2].interval, 32u);
  EXPECT_TRUE(seen[2].manual);      // a stream-level true is kept
  EXPECT_EQ(seen[3].interval, 32u);
  EXPECT_FALSE(seen[3].manual);
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world());
    EXPECT_THROW((void)pipeline.with_resilience(0), std::invalid_argument);
  });
}

TEST(ScopedChannel, FreesOnScopeExitAndMoves) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ScopedChannel outer;
    {
      ScopedChannel ch =
          ScopedChannel::create(self, self.world(), producer, !producer);
      EXPECT_TRUE(ch.valid());
      EXPECT_EQ(ch->producer_count(), 1);
      outer = std::move(ch);
      EXPECT_FALSE(ch.valid());  // NOLINT(bugprone-use-after-move)
    }
    EXPECT_TRUE(outer.valid());
    outer.release();  // collective: both ranks reach this in the same order
    EXPECT_FALSE(outer.valid());
  });
}

TEST(Pipeline, NodePlacementDedicatesTailRanksPerNode) {
  // 8 ranks, 4 per node: the placement split must pick the last rank of
  // each node as its helper, and the streams must still deliver everything.
  auto config = testing::tiny_machine(8);
  config.network.ranks_per_node = 4;
  std::uint64_t consumed = 0;
  testing::run_program(config, [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_node_placement(1);
    auto data = pipeline.raw_stream(sizeof(std::int32_t));
    pipeline.run(
        [&](Context& ctx) {
          EXPECT_EQ(ctx.helpers(), (std::vector<int>{3, 7}));
          EXPECT_EQ(ctx.worker_count(), 6);
          auto& s = ctx[data];
          const std::int32_t v = ctx.parent_rank();
          s.send_items(&v, 1);
          s.send_items(&v, 1);
        },
        [&](Context& ctx) {
          EXPECT_TRUE(ctx.parent_rank() == 3 || ctx.parent_rank() == 7);
          auto& s = ctx[data];
          consumed += s.operate();
        });
  });
  EXPECT_EQ(consumed, 12u);  // 6 workers x 2 elements
}

TEST(Pipeline, NodePlacementSkipsSingleRankNodes) {
  // 9 ranks, 4 per node: node 2 hosts only rank 8, which must stay a
  // worker (a lone rank has nobody to co-locate with).
  auto config = testing::tiny_machine(9);
  config.network.ranks_per_node = 4;
  testing::run_program(config, [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_node_placement(1);
    auto data = pipeline.raw_stream(8);
    pipeline.run(
        [&](Context& ctx) { EXPECT_EQ(ctx.helpers(), (std::vector<int>{3, 7})); },
        [&](Context& ctx) { (void)ctx[data].operate(); });
  });
}

TEST(Pipeline, NodePlacementRejectsDegenerateShapes) {
  // One rank per node: no node hosts two members, nothing to co-locate.
  auto config = testing::tiny_machine(4);
  config.network.ranks_per_node = 1;
  testing::run_program(config, [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world());
    EXPECT_THROW(pipeline.with_node_placement(1), std::invalid_argument);
    EXPECT_THROW(pipeline.with_node_placement(0), std::invalid_argument);
  });
}

TEST(Pipeline, EveryRankSharesOneLayoutAndOneCopyOfEachGroup) {
  // The split, each channel's member list and the worker communicator are
  // set-up state every rank derives identically: one copy per machine.
  constexpr int kP = 16;
  std::vector<const int*> workers(kP, nullptr);
  std::vector<const int*> channel(kP, nullptr);
  std::vector<const int*> worker_comm(kP, nullptr);
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_stride(4).with_worker_comm();
    auto samples = pipeline.stream<Sample>();
    const auto record = [&](Context& ctx) {
      const auto me = static_cast<std::size_t>(ctx.parent_rank());
      workers[me] = ctx.workers().data();
      channel[me] = ctx[samples].channel().comm().group().members().data();
      if (ctx.is_worker())
        worker_comm[me] = ctx.worker_comm().group().members().data();
    };
    pipeline.run(record, record);
  });
  for (int r = 0; r < kP; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(workers[i], workers[0]) << "rank " << r;
    EXPECT_EQ(channel[i], channel[0]) << "rank " << r;
    EXPECT_EQ(worker_comm[i], r % 4 == 3 ? nullptr : worker_comm[0])
        << "rank " << r;
  }
  EXPECT_NE(workers[0], nullptr);
  EXPECT_NE(worker_comm[0], nullptr);
}

TEST(Pipeline, BackToBackPipelinesOnOneChannelBaseRouteIndependently) {
  // Two pipelines over one parent with the same (default) channel base but
  // different splits, run one after the other with no barrier between
  // them: workers done with the first enter the second's channel creation
  // while helpers still drain the first, and every rank still holds the
  // first's channel when the second's is built. Both derive the same
  // channel context, so each must still get its own shape.
  constexpr int kP = 16;
  std::vector<long long> sums(2 * kP, 0);
  std::vector<int> counts(2 * kP, 0);
  std::vector<int> consumers(2 * kP, -1);
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    const auto run_round = [&](int round) {
      auto pipeline =
          Pipeline::over(self, self.world()).with_stride(round == 0 ? 4 : 8);
      auto samples = pipeline.stream<Sample>();
      const auto slot =
          static_cast<std::size_t>(round * kP + self.world_rank());
      pipeline.run(
          [&](Context& ctx) {
            consumers[slot] = ctx[samples].channel().consumer_count();
            ctx[samples].send(Sample{ctx.parent_rank(), round, 0.0});
          },
          [&](Context& ctx) {
            auto& s = ctx[samples];
            consumers[slot] = s.channel().consumer_count();
            s.on_receive([&](const Element<Sample>& el) {
              EXPECT_EQ(el.record.tick, round);
              sums[slot] += el.record.source;
              ++counts[slot];
            });
            s.operate();
          });
      return pipeline;  // keeps its channel until the caller's scope ends
    };
    const Pipeline first = run_round(0);
    const Pipeline second = run_round(1);
  });
  for (int r = 0; r < kP; ++r) {
    const auto first = static_cast<std::size_t>(r);
    const auto second = static_cast<std::size_t>(kP + r);
    EXPECT_EQ(consumers[first], 4) << "rank " << r;
    EXPECT_EQ(consumers[second], 2) << "rank " << r;
    // Stride 4: helper k (rank 4k+3) serves ranks 4k..4k+2 (Block).
    if (r % 4 == 3) {
      EXPECT_EQ(counts[first], 3) << "rank " << r;
      EXPECT_EQ(sums[first], 3LL * (r - 3) + 3) << "rank " << r;
    }
    // Stride 8: helper k (rank 8k+7) serves ranks 8k..8k+6.
    if (r % 8 == 7) {
      EXPECT_EQ(counts[second], 7) << "rank " << r;
      EXPECT_EQ(sums[second], 7LL * (r - 7) + 21) << "rank " << r;
    }
  }
}

}  // namespace
}  // namespace ds::decouple
