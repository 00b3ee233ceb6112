#include "core/channel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/machine_helpers.hpp"
#include "core/stream.hpp"
#include "mpi/datatype.hpp"

namespace ds::stream {
namespace {

using mpi::Rank;

TEST(Channel, CreatePartitionsProducersAndConsumers) {
  testing::run_program(testing::tiny_machine(6), [&](Rank& self) {
    const int me = self.world_rank();
    const bool producer = me < 4;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    EXPECT_TRUE(ch.valid());
    EXPECT_EQ(ch.producer_count(), 4);
    EXPECT_EQ(ch.consumer_count(), 2);
    if (producer) {
      EXPECT_EQ(ch.my_producer_index(self), me);
      EXPECT_EQ(ch.my_consumer_index(self), -1);
    } else {
      EXPECT_EQ(ch.my_consumer_index(self), me - 4);
      EXPECT_EQ(ch.my_producer_index(self), -1);
    }
  });
}

TEST(Channel, NonMembersGetInertHandle) {
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const int me = self.world_rank();
    // Rank 3 stays out entirely.
    const Channel ch = Channel::create(self, self.world(), me == 0 || me == 1,
                                       me == 2);
    if (me == 3) {
      EXPECT_FALSE(ch.valid());
    } else {
      EXPECT_TRUE(ch.valid());
    }
  });
}

TEST(Channel, ProducerAndConsumerRolesAreExclusive) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    EXPECT_THROW(Channel::create(self, self.world(), true, true),
                 std::invalid_argument);
    // Keep the collective count consistent for both ranks: nothing else.
  });
}

TEST(Channel, BlockMappingIsStableAndBalanced) {
  testing::run_program(testing::tiny_machine(10), [&](Rank& self) {
    const int me = self.world_rank();
    const Channel ch = Channel::create(self, self.world(), me < 8, me >= 8);
    if (!ch.valid()) return;
    // 8 producers over 2 consumers: first half -> 0, second half -> 1.
    EXPECT_EQ(ch.route(0, 0), 0);
    EXPECT_EQ(ch.route(3, 99), 0);
    EXPECT_EQ(ch.route(4, 0), 1);
    EXPECT_EQ(ch.route(7, 5), 1);
    for (int p = 0; p < 8; ++p) EXPECT_EQ(ch.route(p, 0), p < 4 ? 0 : 1);
  });
}

TEST(Channel, RoundRobinCyclesConsumers) {
  testing::run_program(testing::tiny_machine(5), [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::RoundRobin;
    const Channel ch =
        Channel::create(self, self.world(), me < 2, me >= 2, cfg);
    // Same producer, consecutive elements -> different consumers.
    EXPECT_NE(ch.route(0, 0), ch.route(0, 1));
    EXPECT_EQ(ch.route(0, 0), ch.route(0, 3));  // 3 consumers -> period 3
    // Every producer reaches every consumer: consumer 1 lies within one
    // rotation of each producer's starting consumer.
    for (int p = 0; p < 2; ++p)
      EXPECT_EQ(ch.route(p, static_cast<std::uint64_t>(
                                (1 - ch.route(p, 0) + 3) % 3)),
                1);
  });
}

TEST(Channel, ChannelRanksMapBackToWorldRanks) {
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const int me = self.world_rank();
    // Producers: ranks 1 and 3; consumers: 0 and 2 (tests reordering).
    const Channel ch =
        Channel::create(self, self.world(), me % 2 == 1, me % 2 == 0);
    if (!ch.valid()) return;
    EXPECT_EQ(ch.comm().world_rank(Channel::producer_rank(0)), 1);
    EXPECT_EQ(ch.comm().world_rank(Channel::producer_rank(1)), 3);
    EXPECT_EQ(ch.comm().world_rank(ch.consumer_rank(0)), 0);
    EXPECT_EQ(ch.comm().world_rank(ch.consumer_rank(1)), 2);
  });
}

TEST(Channel, RequiresBothGroupsNonEmpty) {
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    EXPECT_THROW(Channel::create(self, self.world(), true, false),
                 std::invalid_argument);
  });
}

TEST(Channel, BlockRouteIsStableAcrossTheWholeSequence) {
  // Invariant: under Block mapping a producer's consumer never changes with
  // the element sequence number — the property per-producer element order
  // at the consumer relies on.
  testing::run_program(testing::tiny_machine(12), [&](Rank& self) {
    const int me = self.world_rank();
    const Channel ch = Channel::create(self, self.world(), me < 9, me >= 9);
    if (!ch.valid()) return;
    for (int p = 0; p < ch.producer_count(); ++p) {
      const int peer = ch.route(p, 0);
      for (std::uint64_t seq = 1; seq < 257; ++seq)
        ASSERT_EQ(ch.route(p, seq), peer) << "producer " << p << " seq " << seq;
    }
  });
}

TEST(Channel, BlockRouteCoversEveryConsumerExactlyOnceViaProducersOf) {
  // Invariant: route(p, 0) partitions the producer set into contiguous,
  // ascending slices — every consumer gets at least one producer when
  // P >= C, and each producer's peer matches the closed form.
  testing::run_program(testing::tiny_machine(11), [&](Rank& self) {
    const int me = self.world_rank();
    const Channel ch = Channel::create(self, self.world(), me < 8, me >= 8);
    if (!ch.valid()) return;
    std::vector<int> served(static_cast<std::size_t>(ch.consumer_count()), 0);
    int previous = 0;
    for (int p = 0; p < ch.producer_count(); ++p) {
      const int c = ch.route(p, 0);
      ASSERT_GE(c, 0);
      ASSERT_LT(c, ch.consumer_count());
      EXPECT_EQ(c, Channel::block_route(p, ch.producer_count(),
                                        ch.consumer_count()));
      EXPECT_GE(c, previous);  // slices ascend, so they are disjoint
      previous = c;
      ++served[static_cast<std::size_t>(c)];
    }
    for (const int n : served) EXPECT_GE(n, 1);
  });
}

TEST(Channel, RoundRobinRotationCoversAllConsumersUniformly) {
  // Invariant: under RoundRobin every producer reaches every consumer, and
  // any window of C consecutive elements covers all C consumers exactly once.
  testing::run_program(testing::tiny_machine(7), [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::RoundRobin;
    const Channel ch = Channel::create(self, self.world(), me < 4, me >= 4, cfg);
    if (!ch.valid()) return;
    const int consumers = ch.consumer_count();
    for (int p = 0; p < ch.producer_count(); ++p) {
      for (std::uint64_t start = 0; start < 8; ++start) {
        std::vector<int> hits(static_cast<std::size_t>(consumers), 0);
        for (int k = 0; k < consumers; ++k)
          hits[static_cast<std::size_t>(
              ch.route(p, start + static_cast<std::uint64_t>(k)))]++;
        for (const int h : hits) EXPECT_EQ(h, 1);
      }
    }
  });
}

TEST(Channel, TermTreeMetadataFormsConsistentBinaryTree) {
  // Invariant: the termination tree spans every consumer exactly once, each
  // node's parent/children agree, and the depth stays logarithmic.
  testing::run_program(testing::tiny_machine(12), [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel ch = Channel::create(self, self.world(), me < 3, me >= 3, cfg);
    if (!ch.valid()) return;
    const int consumers = ch.consumer_count();
    ASSERT_EQ(consumers, 9);
    EXPECT_EQ(Channel::term_aggregator(), 0);
    EXPECT_EQ(Channel::term_parent(Channel::term_aggregator()), -1);
    std::vector<int> reached(static_cast<std::size_t>(consumers), 0);
    reached[0] = 1;
    for (int c = 0; c < consumers; ++c) {
      const auto children = ch.term_children(c);
      EXPECT_LE(children.size(), 2u);
      for (const int child : children) {
        EXPECT_EQ(Channel::term_parent(child), c);
        ++reached[static_cast<std::size_t>(child)];
      }
    }
    for (const int r : reached) EXPECT_EQ(r, 1);  // spanning, no duplicates
    EXPECT_LE(ch.term_tree_depth(), 4);  // ceil(log2(9 + 1))
  });
}

TEST(Channel, NodeAwareTermTreeKeepsCrossNodeEdgesAtLeaderCount) {
  // 12 ranks, 4 per node; producers 0-2, consumers on world ranks 3-11 so
  // the consumer set spans node 0 (c0), node 1 (c1-c4), node 2 (c5-c8).
  auto config = testing::tiny_machine(12);
  config.network.ranks_per_node = 4;
  testing::run_program(config, [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    cfg.node_aware_term = true;
    const Channel ch = Channel::create(self, self.world(), me < 3, me >= 3, cfg);
    if (!ch.valid()) return;
    EXPECT_TRUE(ch.node_aware_term());
    const int consumers = ch.consumer_count();
    ASSERT_EQ(consumers, 9);

    // The aggregator never moves, and both invariants the protocol relies
    // on hold: parent < child everywhere, spanning without duplicates.
    EXPECT_EQ(Channel::term_aggregator(), 0);
    EXPECT_EQ(ch.term_parent_of(0), -1);
    std::vector<int> reached(static_cast<std::size_t>(consumers), 0);
    reached[0] = 1;
    for (int c = 0; c < consumers; ++c) {
      for (const int child : ch.term_children(c)) {
        EXPECT_EQ(ch.term_parent_of(child), c);
        EXPECT_LT(c, child);
        ++reached[static_cast<std::size_t>(child)];
      }
    }
    for (const int r : reached) EXPECT_EQ(r, 1);

    // Node leaders are c0, c1, c5; only their heap edges cross nodes.
    EXPECT_EQ(ch.term_cross_node_edges(), 2);
    EXPECT_EQ(ch.term_parent_of(2), 1);  // non-leaders hang off their leader
    EXPECT_EQ(ch.term_parent_of(8), 5);
    EXPECT_LE(ch.term_tree_depth(), 2);

    // Subtree membership follows the node-aware shape, not the flat heap.
    EXPECT_TRUE(ch.term_in_subtree_of(7, 5));
    EXPECT_FALSE(ch.term_in_subtree_of(7, 1));
    EXPECT_TRUE(ch.term_in_subtree_of(4, 1));
  });
}

TEST(Channel, NodeAwareTermDefaultsOffAndFlatOnOneNode) {
  testing::run_program(testing::tiny_machine(12), [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel off = Channel::create(self, self.world(), me < 3, me >= 3, cfg);
    if (off.valid()) {
      EXPECT_FALSE(off.node_aware_term());
      for (int c = 0; c < off.consumer_count(); ++c)
        EXPECT_EQ(off.term_parent_of(c), Channel::term_parent(c));
    }
    // With every consumer on one node (default 32 ranks/node) the aware
    // tree has no fabric edges at all.
    cfg.node_aware_term = true;
    cfg.channel_id = 7;
    const Channel on = Channel::create(self, self.world(), me < 3, me >= 3, cfg);
    if (on.valid()) {
      EXPECT_TRUE(on.node_aware_term());
      EXPECT_EQ(on.term_cross_node_edges(), 0);
    }
  });
}

TEST(Channel, NodeAwareTermDeliversDirectedStreamExactly) {
  // End to end through the protocol: the reshaped tree must not change what
  // arrives — every element once, one term per producer.
  constexpr int kProducers = 3, kConsumers = 9, kEach = 5;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.network.ranks_per_node = 4;
  std::uint64_t consumed = 0;
  std::uint64_t producer_terms = 0;
  testing::run_program(config, [&](Rank& self) {
    const int me = self.world_rank();
    const bool producer = me < kProducers;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    cfg.node_aware_term = true;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(64), {});
    if (producer) {
      for (int i = 0; i < kEach; ++i)
        s.isend_to(self, (me + i) % kConsumers, mpi::SendBuf::synthetic(64));
      s.terminate(self);
      producer_terms += s.term_messages_sent();
    } else {
      consumed += s.operate(self);
    }
  });
  EXPECT_EQ(consumed, static_cast<std::uint64_t>(kProducers) * kEach);
  EXPECT_EQ(producer_terms, static_cast<std::uint64_t>(kProducers));
}

TEST(Channel, DistinctChannelIdsGetDistinctContexts) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig c1;
    c1.channel_id = 1;
    ChannelConfig c2;
    c2.channel_id = 2;
    const Channel a = Channel::create(self, self.world(), me == 0, me == 1, c1);
    const Channel b = Channel::create(self, self.world(), me == 0, me == 1, c2);
    EXPECT_NE(a.comm().context(), b.comm().context());
  });
}

TEST(Channel, EveryRankOfOneCreateSharesTheMemberTable) {
  // The channel's shape is interned per machine: every member points at
  // one member list, and every rank (the inert non-member too) reads the
  // group sizes from the same shape.
  constexpr int kP = 9;
  std::vector<const int*> members(kP, nullptr);
  std::vector<int> counts(kP, -1);
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    const int me = self.world_rank();
    const Channel ch =
        Channel::create(self, self.world(), me < 6, me >= 6 && me < 8);
    counts[static_cast<std::size_t>(me)] =
        ch.producer_count() * 10 + ch.consumer_count();
    if (ch.valid())
      members[static_cast<std::size_t>(me)] =
          ch.comm().group().members().data();
    // Hold the handle until every rank has built its own: an interned
    // shape lives only while some rank refers to it.
    (void)self.barrier(self.world());
  });
  for (int r = 0; r < 8; ++r)
    EXPECT_EQ(members[static_cast<std::size_t>(r)], members[0]) << "rank " << r;
  EXPECT_NE(members[0], nullptr);
  EXPECT_EQ(members[8], nullptr);  // non-member: inert handle
  for (const int c : counts) EXPECT_EQ(c, 62);
}

TEST(Channel, ReusedIdWithOtherRolesBuildsItsOwnShape) {
  // Two channels with one id over one parent derive the same context. The
  // second is built while every rank still holds the first, so a shape
  // looked up by context alone would hand it the first's groups.
  constexpr int kP = 8;
  std::uint64_t consumed = 0;
  std::vector<int> sizes(kP, -1);
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig config;
    config.channel_id = 7;
    Channel first =
        Channel::create(self, self.world(), me < 6, me >= 6, config);
    Channel second =
        Channel::create(self, self.world(), me >= 2, me < 2, config);
    sizes[static_cast<std::size_t>(me)] =
        second.producer_count() * 10 + second.consumer_count();
    EXPECT_EQ(first.producer_count(), 6);
    EXPECT_EQ(second.my_producer_index(self), me >= 2 ? me - 2 : -1);
    EXPECT_EQ(second.my_consumer_index(self), me < 2 ? me : -1);
    Stream s = Stream::attach(second, mpi::Datatype::bytes(8), {});
    if (me >= 2) {
      for (int i = 0; i < 3; ++i) s.isend(self, mpi::SendBuf::synthetic(8));
      s.terminate(self);
    } else {
      consumed += s.operate(self);
    }
    second.free(self);
    first.free(self);
  });
  for (const int s : sizes) EXPECT_EQ(s, 62);
  EXPECT_EQ(consumed, 6u * 3u);
}

}  // namespace
}  // namespace ds::stream
