#include "core/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/machine_helpers.hpp"

namespace ds::stream {
namespace {

using mpi::Rank;
using mpi::SendBuf;

TEST(Stream, ElementsReachConsumerWithOperatorApplied) {
  std::vector<int> received;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    auto op = [&](const StreamElement& el) {
      int v = 0;
      std::memcpy(&v, el.data, sizeof v);
      received.push_back(v);
    };
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), producer ? Operator{} : op);
    if (producer) {
      for (int i = 0; i < 5; ++i) s.isend(self, SendBuf::of(&i, 1));
      s.terminate(self);
    } else {
      const auto n = s.operate(self);
      EXPECT_EQ(n, 5u);
    }
  });
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Stream, OperateReturnsAfterAllProducersTerminate) {
  int consumed = 0;
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const bool producer = self.world_rank() < 3;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++consumed; });
    if (producer) {
      const int v = self.world_rank();
      s.isend(self, SendBuf::of(&v, 1));
      s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
    } else {
      (void)s.operate(self);
      EXPECT_TRUE(s.exhausted());
    }
  });
  EXPECT_EQ(consumed, 6);
}

TEST(Stream, FcfsAbsorbsProducerImbalance) {
  // One producer is heavily delayed; the consumer must process the fast
  // producer's elements first instead of waiting on the slow one.
  std::vector<int> arrival_order;
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    const bool producer = self.world_rank() < 2;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement& el) {
                                arrival_order.push_back(el.producer);
                              });
    if (producer) {
      if (self.world_rank() == 0) self.process().advance(util::milliseconds(20));
      const int v = 1;
      for (int i = 0; i < 3; ++i) s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
  ASSERT_EQ(arrival_order.size(), 6u);
  // The fast producer (index 1) delivers all three elements first.
  EXPECT_EQ(arrival_order[0], 1);
  EXPECT_EQ(arrival_order[1], 1);
  EXPECT_EQ(arrival_order[2], 1);
}

TEST(Stream, SyntheticElementsReportNullData) {
  int seen = 0;
  bool data_was_null = false;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(1024),
                              [&](const StreamElement& el) {
                                ++seen;
                                data_was_null = el.data == nullptr;
                                EXPECT_EQ(el.bytes, 1024u);
                              });
    if (producer) {
      s.isend_synthetic(self);
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_EQ(seen, 1);
  EXPECT_TRUE(data_was_null);
}

TEST(Stream, OversizedElementRejected) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(8), {});
    if (producer) {
      EXPECT_THROW(s.isend(self, SendBuf::synthetic(9)), std::invalid_argument);
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
}

TEST(Stream, IsendAfterTerminateRejected) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      s.terminate(self);
      const int v = 0;
      EXPECT_THROW(s.isend(self, SendBuf::of(&v, 1)), std::logic_error);
    } else {
      (void)s.operate(self);
    }
  });
}

TEST(Stream, ConsumerApiOnProducerThrows) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      EXPECT_THROW((void)s.operate(self), std::logic_error);
      s.terminate(self);
    } else {
      EXPECT_THROW(s.isend(self, SendBuf::synthetic(4)), std::logic_error);
      (void)s.operate(self);
    }
  });
}

TEST(Stream, DirectedRoutingReachesAddressedConsumer) {
  std::vector<int> seen_by(2, 0);
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const int me = self.world_rank();
    const bool producer = me < 2;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) {
                                ++seen_by[static_cast<std::size_t>(
                                    ch.my_consumer_index(self))];
                              });
    if (producer) {
      const int v = 1;
      s.isend_to(self, 1, SendBuf::of(&v, 1));  // both producers target c1
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_EQ(seen_by[0], 0);
  EXPECT_EQ(seen_by[1], 2);
}

TEST(Stream, PollOneDrainsWithoutBlocking) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    int seen = 0;
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++seen; });
    if (producer) {
      const int v = 7;
      s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
    } else {
      EXPECT_FALSE(s.poll_one(self));  // nothing arrived yet at t=0
      self.process().advance(util::milliseconds(1));
      EXPECT_TRUE(s.poll_one(self));   // element
      EXPECT_EQ(seen, 1);
      (void)s.operate(self);           // just the termination remains
      EXPECT_EQ(seen, 1);
    }
  });
}

TEST(Stream, MultipleStreamsOnOneChannelStaySeparate) {
  int a_count = 0, b_count = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream a = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++a_count; }, 1);
    Stream b = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++b_count; }, 2);
    if (producer) {
      const int v = 0;
      a.isend(self, SendBuf::of(&v, 1));
      a.isend(self, SendBuf::of(&v, 1));
      b.isend(self, SendBuf::of(&v, 1));
      a.terminate(self);
      b.terminate(self);
    } else {
      (void)a.operate(self);
      (void)b.operate(self);
    }
  });
  EXPECT_EQ(a_count, 2);
  EXPECT_EQ(b_count, 1);
}

TEST(Stream, DirectedTerminationAggregatesThroughTree) {
  // Regression for the O(P*C) term broadcast: every producer must send
  // exactly one term (to the aggregator), every consumer at most two (its
  // tree children), P + C - 1 term messages in total. Block channels take
  // the same tree: their producers reach only their peer, but terminate
  // like everyone else.
  constexpr int kProducers = 3;
  constexpr int kConsumers = 8;
  for (const auto mapping :
       {ChannelConfig::Mapping::Directed, ChannelConfig::Mapping::Block}) {
    SCOPED_TRACE(mapping == ChannelConfig::Mapping::Block ? "Block"
                                                          : "Directed");
    std::uint64_t producer_terms = 0, consumer_terms = 0;
    std::uint64_t max_producer_terms = 0, max_consumer_terms = 0;
    std::uint64_t consumed = 0;
    testing::run_program(
        testing::tiny_machine(kProducers + kConsumers), [&](Rank& self) {
          const bool producer = self.world_rank() < kProducers;
          ChannelConfig cfg;
          cfg.mapping = mapping;
          const Channel ch =
              Channel::create(self, self.world(), producer, !producer, cfg);
          Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                                    [](const StreamElement&) {});
          if (producer) {
            const int v = self.world_rank();
            if (mapping == ChannelConfig::Mapping::Block) {
              s.isend(self, SendBuf::of(&v, 1));
            } else {
              for (int c = 0; c < kConsumers; ++c)
                s.isend_to(self, c, SendBuf::of(&v, 1));
            }
            s.terminate(self);
            producer_terms += s.term_messages_sent();
            max_producer_terms =
                std::max(max_producer_terms, s.term_messages_sent());
          } else {
            const std::uint64_t n = s.operate(self);
            // Directed: one element from each producer everywhere.
            if (mapping == ChannelConfig::Mapping::Directed) {
              EXPECT_EQ(n, 3u);
            }
            consumed += n;
            consumer_terms += s.term_messages_sent();
            max_consumer_terms =
                std::max(max_consumer_terms, s.term_messages_sent());
          }
        });
    EXPECT_EQ(consumed, mapping == ChannelConfig::Mapping::Block
                            ? static_cast<std::uint64_t>(kProducers)
                            : static_cast<std::uint64_t>(kProducers *
                                                         kConsumers));
    EXPECT_EQ(max_producer_terms, 1u);  // the seed sent kConsumers per producer
    EXPECT_LE(max_consumer_terms, 2u);  // binary-tree fan-out
    EXPECT_EQ(producer_terms + consumer_terms,
              static_cast<std::uint64_t>(kProducers + kConsumers - 1));
  }
}

TEST(Stream, BlockIsendToRejectsConsumersOtherThanThePeer) {
  // A Block producer streams to its peer only: the credit clamp and the
  // routing contract both assume one destination, so addressing another
  // consumer is rejected before anything is sent. The peer still gets its
  // element and the stream terminates with no send left unmatched.
  mpi::Machine machine(testing::tiny_machine(4));
  std::vector<std::uint64_t> consumed(2, 0);
  machine.run([&](Rank& self) {
    const bool producer = self.world_rank() < 2;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      const int p = ch.my_producer_index(self);
      const int peer = ch.route(p, 0);
      EXPECT_EQ(peer, p);  // 2 producers over 2 consumers
      const int v = p;
      EXPECT_THROW(s.isend_to(self, 1 - peer, SendBuf::of(&v, 1)),
                   std::invalid_argument);
      s.isend_to(self, peer, SendBuf::of(&v, 1));
      s.terminate(self);
    } else {
      consumed[static_cast<std::size_t>(ch.my_consumer_index(self))] =
          s.operate(self);
    }
  });
  EXPECT_EQ(consumed, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
}

TEST(Stream, TreeTerminationDoesNotOvertakeInFlightData) {
  // A collective term travels aggregator -> tree, a data element travels
  // producer -> consumer directly; a large element can still be on the wire
  // when the (tiny) term lands. The per-consumer counts the term carries
  // must keep the consumer draining until the element arrives.
  int deep_consumer_elements = 0;
  testing::run_program(testing::tiny_machine(5), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(1 << 20),
                              [&](const StreamElement&) {
                                if (ch.my_consumer_index(self) == 3)
                                  ++deep_consumer_elements;
                              });
    if (producer) {
      // Consumer 3 is the deepest tree node (0 -> 1 -> 3); the 1 MB element
      // takes far longer on the wire than the aggregation path.
      s.isend_to(self, 3, SendBuf::synthetic(1 << 20));
      s.terminate(self);
    } else {
      (void)s.operate(self);
      EXPECT_TRUE(s.exhausted());
    }
  });
  EXPECT_EQ(deep_consumer_elements, 1);
}

TEST(Stream, PollOneSkipsTermOnlyMessages) {
  // Regression: poll_one must not report a termination as a processed
  // element (callers would overcount relative to operate_while semantics).
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    int seen = 0;
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++seen; });
    if (producer) {
      s.terminate(self);  // term-only stream: no data at all
    } else {
      self.process().advance(util::milliseconds(1));
      EXPECT_FALSE(s.poll_one(self));  // term consumed, but no element
      EXPECT_TRUE(s.exhausted());
      EXPECT_EQ(seen, 0);
    }
  });
}

TEST(Stream, IsendToRejectsOutOfRangeConsumer) {
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      const int v = 0;
      EXPECT_THROW(s.isend_to(self, 2, SendBuf::of(&v, 1)), std::out_of_range);
      EXPECT_THROW(s.isend_to(self, -1, SendBuf::of(&v, 1)), std::out_of_range);
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
}

TEST(Stream, MaxInflightThrottlesProducerToConsumerPace) {
  // Credit-based backpressure: with a window of 2 and a consumer that needs
  // 100 us per element, a 20-element producer must stay within ~2 elements
  // of the consumer instead of finishing instantly.
  util::SimTime producer_done = 0;
  std::uint64_t consumed = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 2;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) {
                                self.compute(util::microseconds(100));
                              });
    if (producer) {
      const int v = 1;
      for (int i = 0; i < 20; ++i) s.isend(self, SendBuf::of(&v, 1));
      producer_done = self.now();
      s.terminate(self);
    } else {
      consumed = s.operate(self);
    }
  });
  EXPECT_EQ(consumed, 20u);
  // 18 of the 20 sends had to wait for a credit, each behind ~100 us of
  // consumer compute.
  EXPECT_GE(producer_done, util::microseconds(1500));
}

TEST(Stream, InjectionChargesOverheadToProducer) {
  util::SimTime producer_done = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.inject_overhead = util::microseconds(10);
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      const int v = 0;
      for (int i = 0; i < 100; ++i) s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
      producer_done = self.now();
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_GE(producer_done, util::microseconds(1000));  // 100 x 10us
}

/// Resident set size of this process in bytes (Linux), or -1 when unknown.
long long resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      long long kib = -1;
      status >> kib;
      return kib < 0 ? -1 : kib * 1024;
    }
    status.ignore(4096, '\n');
  }
  return -1;
}

TEST(Stream, ReceiveBuffersCommitOnlyDeliveredBytes) {
  // Consumers size their receive buffer to the declared element capacity,
  // but modeled elements deliver a header at most: the pages behind the
  // rest of the capacity must never become resident.
  if (resident_bytes() < 0) GTEST_SKIP() << "VmRSS not available";
  constexpr std::size_t kCapacity = std::size_t{32} << 20;
  constexpr int kConsumers = 4;
  long long before = -1;
  long long during = -1;
  testing::run_program(testing::tiny_machine(2 * kConsumers), [&](Rank& self) {
    const bool producer = self.world_rank() < kConsumers;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    std::uint64_t header = 0;
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(kCapacity),
                              [&](const StreamElement& el) {
                                if (el.data != nullptr)
                                  std::memcpy(&header, el.data, sizeof header);
                              });
    if (self.world_rank() == 0) before = resident_bytes();
    self.barrier(self.world());
    if (producer) {
      for (std::uint64_t i = 0; i < 3; ++i)
        s.isend(self, SendBuf::header_only(i, kCapacity));
      s.isend_synthetic(self);
      s.terminate(self);
    } else {
      EXPECT_EQ(s.operate(self), 4u);
      EXPECT_EQ(header, 2u);
    }
    // Every consumer's buffer is alive until after the second barrier.
    self.barrier(self.world());
    if (self.world_rank() == 0) during = resident_bytes();
    self.barrier(self.world());
  });
  const long long committed =
      static_cast<long long>(kConsumers) * static_cast<long long>(kCapacity);
  EXPECT_LT(during - before, committed / 8)
      << "resident growth " << (during - before) << " B against "
      << committed << " B of declared receive capacity";
}

}  // namespace
}  // namespace ds::stream
