// MPIStream channels (paper Sec. III-A, step 1).
//
// A channel is the communication fabric between two disjoint groups of a
// parent communicator: data producers and data consumers. Creation is
// collective over the parent (mirroring MPIStream_CreateChannel's
// is_data_producer / is_data_consumer flags); every member learns both
// groups and non-members receive an inert handle.
//
// Producers address consumers through a mapping policy:
//  * Block      — producer p always streams to consumer floor(p*C/P); stable
//                 peer, preserves per-producer element order at the consumer.
//  * RoundRobin — producer p spreads elements over all consumers; spreads
//                 load, order preserved only per (producer, consumer) pair.
//  * Directed   — the producer names the consumer of each element
//                 (Stream::isend_to; plain isend takes the Block peer);
//                 order preserved per (producer, consumer) pair.
// The mapping only routes: every mapping terminates through the same
// counted term tree (see the termination metadata below).
//
// This is the implementation layer: application code normally goes through
// the typed RAII facade in core/decouple.hpp (decouple::Pipeline), which
// owns channel lifetime and role dispatch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/rank.hpp"
#include "resilience/membership.hpp"
#include "util/time.hpp"

namespace ds::stream {

struct ChannelConfig {
  /// Distinguishes channels created over the same parent communicator; every
  /// concurrently live channel on one parent needs a distinct id.
  std::uint64_t channel_id = 0;

  /// Per-element injection overhead `o` (paper Eq. 4): element construction
  /// plus the library call, charged to the producer at every stream_isend.
  util::SimTime inject_overhead = util::nanoseconds(150);

  /// Block      — producer p streams to one fixed consumer, its Block peer
  ///              (Stream::isend_to rejects any other consumer).
  /// RoundRobin — producer p rotates over all consumers.
  /// Directed   — producers address consumers per element via isend_to.
  enum class Mapping { Block, RoundRobin, Directed };
  Mapping mapping = Mapping::Block;

  /// Producer-side flow-control window: the maximum number of elements a
  /// producer may have in flight (sent but not yet consumed) before its next
  /// injection blocks on a credit returned over the stream's ack context.
  /// 0 disables backpressure (paper default: unbounded injection).
  /// Contract: credits come from consumption, so consumers of a
  /// flow-controlled stream must consume every element (operate to
  /// exhaustion); a consumer that stops with more than a window of elements
  /// outstanding leaves the producer blocked.
  std::uint32_t max_inflight = 0;

  /// Credit batching: a flow-controlled consumer returns credits every
  /// `ack_interval`-th element per producer (one ack message carrying the
  /// batched count) instead of per element, cutting flow-control message
  /// count ~ack_interval-fold. Remaining credits are flushed whenever a
  /// termination message arrives (a producer term at the aggregator, the
  /// collective term everywhere) and when the stream is exhausted, so the
  /// producer window never stalls on the tail. For liveness the effective
  /// batch is clamped to ceil(max_inflight / spread), where spread is the
  /// number of consumers a producer can route to (1 under Block, whose
  /// producers reach only their peer, the consumer count under
  /// RoundRobin/Directed): a blocked producer then always has some consumer
  /// holding a full batch. 0 picks the library default
  /// (kDefaultAckInterval). Only meaningful with max_inflight > 0.
  std::uint32_t ack_interval = 0;

  /// Default credit batch when ack_interval is 0: every 4th element acks.
  static constexpr std::uint32_t kDefaultAckInterval = 4;

  /// Transport-level element coalescing: every element travels in a framed
  /// fabric message (length-prefixed sub-records), and a producer packs
  /// same-destination elements injected at the same virtual instant into
  /// one frame of up to `coalesce_budget` wire bytes. Frames flush when the
  /// budget or the 128-element cap fills, when the producer terminates or
  /// blocks on a credit, and — via a same-instant backstop event — the
  /// moment the producing fiber yields the CPU, so elements are never
  /// delayed in virtual time beyond the instant they were injected at. An
  /// element too large for the budget is framed alone and posted at once.
  /// 0 means one element per frame: one fabric message per element, the
  /// paper's fine-grained default.
  std::uint32_t coalesce_budget = kDefaultCoalesceBudget;

  /// Self-tuning flow control: when true, the stream drives the coalesce
  /// budget online from the producer's flush-occupancy/inter-arrival
  /// signals (stream::FlowController), and — when ack_interval is 0 — the
  /// consumer's effective credit batch tracks the observed frame occupancy
  /// (one ack per drained frame) within the liveness clamp. Pin
  /// coalesce_budget/ack_interval and set this false for fixed behavior.
  bool flow_autotune = true;

  /// Stream epochs / consumer failover (ds::resilience): when nonzero, every
  /// element of the stream travels in a framed message stamped with its flow
  /// id and sequence number, producers cut an epoch every
  /// `checkpoint_interval` elements per flow and retain unacknowledged
  /// frames for replay, and on an injected consumer crash the producers
  /// rebind the dead consumer's flows to the deterministic failover target,
  /// replay the open epoch, and the receiver dedupes by (flow, seq) so
  /// delivery stays exactly-once from the application's view. 0 (default)
  /// disables all resilience machinery — the fault-free hot path is
  /// untouched.
  std::uint32_t checkpoint_interval = 0;

  /// Durability-acknowledgment mode for resilient streams: false = automatic
  /// at epoch boundaries (processing counts as durable); true = the consumer
  /// application calls Stream::ack_durable once its external effects are
  /// safe. See decouple::Pipeline::with_resilience.
  bool manual_durability = false;

  /// Node-aware termination aggregation: shape the term tree from the
  /// machine's node structure instead of the flat binary heap. The first
  /// consumer on each node becomes the node's leader; leaders form a binary
  /// tree among themselves (the only cross-node edges), and every other
  /// consumer hangs off its own node's leader — so the collective term
  /// crosses the fabric O(nodes) times instead of O(consumers), and the
  /// per-node hops ride shared memory. The aggregator stays consumer 0.
  /// False (default) keeps the flat heap tree exactly as before.
  bool node_aware_term = false;

  /// Consumer slots that start the run deactivated in the membership ledger
  /// (resilient channels only): their flows are served by the deterministic
  /// failover target until Channel::admit_consumer brings them online — the
  /// elastic scale-up scenario. Applied once, when the channel's shape is
  /// built; a later attach to the live channel finds the ledger as it is.
  /// Ignored on non-resilient channels.
  std::vector<int> initially_inactive_consumers{};

  [[nodiscard]] bool resilient() const noexcept {
    return checkpoint_interval > 0;
  }

  /// Default frame budget in wire bytes (fits well under the default eager
  /// threshold; ~28 64-byte elements per frame).
  static constexpr std::uint32_t kDefaultCoalesceBudget = 2048;
  /// Self-tuning may grow a frame budget to at most this multiple of its
  /// configured value; consumers size their receive buffers from the same
  /// bound, so both sides agree without coordination.
  static constexpr std::uint32_t kCoalesceGrowthCap = 4;
  /// Adaptive flow control may grow the effective credit window to at most
  /// this multiple of max_inflight (and never below it): the consumer-side
  /// liveness clamp is derived from the configured window, so growing — but
  /// never shrinking past — the configured value keeps the clamp valid.
  static constexpr std::uint32_t kWindowGrowthCap = 4;
};

class Channel {
 public:
  Channel() = default;

  /// Collective over `parent`: every member calls with its role. A rank may
  /// be producer, consumer, or neither (inert handle); producer+consumer on
  /// the same rank is rejected (the groups must be disjoint).
  [[nodiscard]] static Channel create(mpi::Rank& self, const mpi::Comm& parent,
                                      bool is_producer, bool is_consumer,
                                      ChannelConfig config = {});

  /// Local-only (non-collective) reconstruction of the channel create()
  /// built: `role_of(parent_rank)` must return the role each member passed
  /// at create time (0 = neither, 1 = producer, 2 = consumer). A respawned
  /// fiber rejoining a live channel cannot re-enter the creation collective
  /// — its peers are long past it — but in every decoupled program the role
  /// assignment is a pure function of rank, so the restarted rank finds the
  /// live channel's shape (same derived context, same membership ledger)
  /// without touching the fabric. Once every earlier handle is gone, the
  /// same call builds a fresh shape with a fresh ledger.
  [[nodiscard]] static Channel attach(
      mpi::Rank& self, const mpi::Comm& parent,
      const std::function<std::int8_t(int)>& role_of, ChannelConfig config = {});

  /// Collective over the channel members: quiesce and release (paper's
  /// MPIStream_FreeChannel). No-op for non-members.
  void free(mpi::Rank& self);

  [[nodiscard]] bool valid() const noexcept { return comm_.valid(); }
  [[nodiscard]] const ChannelConfig& config() const noexcept { return config_; }
  /// Communicator spanning producers (ranks [0, P)) then consumers
  /// (ranks [P, P+C)).
  [[nodiscard]] const mpi::Comm& comm() const noexcept { return comm_; }
  [[nodiscard]] int producer_count() const noexcept { return producer_count_; }
  [[nodiscard]] int consumer_count() const noexcept { return consumer_count_; }

  /// This rank's producer index, or -1.
  [[nodiscard]] int my_producer_index(const mpi::Rank& self) const noexcept;
  /// This rank's consumer index, or -1.
  [[nodiscard]] int my_consumer_index(const mpi::Rank& self) const noexcept;

  /// Consumer index element #`seq` from producer `p` is routed to.
  [[nodiscard]] int route(int producer, std::uint64_t seq) const noexcept;

  /// The Block assignment in closed form: the consumer a producer streams
  /// to when `producer_count` producers block-map onto `consumer_count`
  /// consumers. Exposed so code holding an inert handle (e.g. a chain stage
  /// that is neither endpoint) can reproduce the routing without a channel.
  [[nodiscard]] static int block_route(int producer, int producer_count,
                                       int consumer_count) noexcept {
    return static_cast<int>(static_cast<long long>(producer) * consumer_count /
                            producer_count);
  }

  // ---- termination routing metadata --------------------------------------
  // Termination is aggregated whatever the mapping: every producer sends one
  // term (carrying its per-consumer element counts) to a designated
  // aggregator consumer, which fans the collective term down a tree over the
  // consumers — O(P + C) messages total, O(log C) hops on the aggregation
  // path, where a per-producer broadcast would cost O(P*C). The tree is the
  // flat binary heap (parent (c-1)/2) or, with node_aware_term, the
  // node-aware shape; either way the channel's shape holds it as one table
  // built once per machine: parents, children, preorder intervals, depth.

  /// Consumer index that aggregates producer terms (tree root). Holds for
  /// both tree shapes: the node-aware build keeps consumer 0 as the first
  /// leader, so the root never moves.
  [[nodiscard]] static int term_aggregator() noexcept { return 0; }
  /// Tree parent of consumer `c` (-1 for the aggregator). Both shapes
  /// guarantee parent < child.
  [[nodiscard]] int term_parent_of(int consumer) const noexcept {
    return shape_->term_parent[static_cast<std::size_t>(consumer)];
  }
  /// True when the channel built a node-aware term tree.
  [[nodiscard]] bool node_aware_term() const noexcept {
    return shape_ && shape_->node_aware_term;
  }
  /// Tree children of consumer `c`, ascending: the order the collective
  /// term fans out in. Views the shape's table; no allocation.
  [[nodiscard]] std::span<const int> term_children(
      int consumer) const noexcept {
    const auto c = static_cast<std::size_t>(consumer);
    const auto begin = static_cast<std::size_t>(shape_->term_child_begin[c]);
    const auto end = static_cast<std::size_t>(shape_->term_child_begin[c + 1]);
    return std::span<const int>(shape_->term_children)
        .subspan(begin, end - begin);
  }
  /// True when `consumer` lies in the tree subtree rooted at `root`
  /// (inclusive): an interval test on the preorder numbering. Used to slice
  /// the per-consumer counts a collective term carries down to just the
  /// receiver's subtree.
  [[nodiscard]] bool term_in_subtree_of(int consumer, int root) const noexcept {
    const Preorder& r = shape_->term_order[static_cast<std::size_t>(root)];
    const int at = shape_->term_order[static_cast<std::size_t>(consumer)].enter;
    return r.enter <= at && at < r.exit;
  }
  /// Tree hops from the aggregator to the deepest consumer: the length of
  /// the collective-term critical path. O(log C) for the flat heap;
  /// O(log nodes + 1) node-aware.
  [[nodiscard]] int term_tree_depth() const noexcept {
    return shape_ ? shape_->term_depth : 0;
  }
  /// Tree edges whose endpoint consumers live on different nodes — the
  /// term messages that must cross the fabric. The node-aware shape bounds
  /// this by the leader tree (O(nodes)); the flat heap scatters edges
  /// across nodes. Benches use it to compare the shapes.
  [[nodiscard]] int term_cross_node_edges() const noexcept;
  /// Node id of consumer `c` on the machine the channel was created on.
  [[nodiscard]] int consumer_node(int consumer) const noexcept {
    return shape_ ? shape_->consumer_node[static_cast<std::size_t>(consumer)]
                  : 0;
  }
  /// Channel rank (in comm()) of producer p / consumer c.
  [[nodiscard]] static int producer_rank(int p) noexcept { return p; }
  [[nodiscard]] int consumer_rank(int c) const noexcept {
    return producer_count_ + c;
  }

  // ---- elastic membership (resilient channels) ---------------------------
  // The ledger lives in the channel's shape, so every handle of the channel
  // on the machine shares it: a retire/admit on any rank is observed by
  // every other rank at its next poll, exactly like the failure record.
  // Slots, not ranks: a retired slot's rank stays alive.

  /// True when consumer slot `c` is active (always true on non-resilient
  /// channels — their membership is static).
  [[nodiscard]] bool consumer_active(int c) const noexcept {
    return !shape_ || shape_->ledger.is_active(c);
  }
  /// Monotone membership version (always 0 on non-resilient channels).
  /// Streams cache it and rebalance flows when it moves — the elastic
  /// analogue of failure_epoch.
  [[nodiscard]] std::uint64_t membership_version() const noexcept {
    return shape_ ? shape_->ledger.version : 0;
  }
  /// Deactivate consumer slot `c`: its flows rebalance to the deterministic
  /// failover target (voluntary handoff — no replay storm, no data loss).
  /// Retiring the current effective aggregator is rejected: the aggregator
  /// must keep servicing the termination protocol. Resilient channels only.
  void retire_consumer(mpi::Rank& self, int c) const;
  /// (Re)activate consumer slot `c`: the current owner hands its flows back.
  void admit_consumer(mpi::Rank& self, int c) const;

 private:
  /// Preorder numbering of one term-tree node: its subtree is exactly the
  /// nodes numbered [enter, exit).
  struct Preorder {
    int enter = 0;
    int exit = 0;
  };

  /// Everything every member of a channel shares. Each rank that builds the
  /// channel derives the same shape from the role vector and the config, so
  /// it is interned once per machine (Machine::intern, keyed by the channel
  /// context) and each rank holds a pointer, not a copy. Read-only apart
  /// from the membership ledger.
  struct Shape {
    mpi::Comm parent;                ///< communicator the roles index
    std::vector<std::int8_t> roles;  ///< per parent rank, as exchanged
    bool node_aware_term = false;
    bool resilient = false;
    std::vector<int> initially_inactive;  ///< as configured
    int producers = 0;
    int consumers = 0;
    mpi::Comm comm;                  ///< producers, then consumers
    std::vector<int> consumer_node;  ///< node id per consumer
    // The term tree (parent < child throughout).
    std::vector<int> term_parent;       ///< per consumer; -1 at the root
    std::vector<int> term_child_begin;  ///< offsets into term_children, C + 1
    std::vector<int> term_children;     ///< children per consumer, ascending
    std::vector<Preorder> term_order;   ///< preorder interval per consumer
    int term_depth = 0;
    /// Active consumer slots, shared by every handle of the channel. Only
    /// resilient channels ever change it.
    mutable resilience::MembershipLedger ledger{0};
  };

  static Channel build(mpi::Rank& self, const mpi::Comm& parent,
                       const std::vector<std::int8_t>& roles,
                       ChannelConfig config);
  static std::shared_ptr<const Shape> make_shape(
      const mpi::Machine& machine, const mpi::Comm& parent,
      const std::vector<std::int8_t>& roles, const ChannelConfig& config,
      std::uint64_t context);

  ChannelConfig config_{};
  mpi::Comm comm_{};  ///< the shape's comm on members; invalid otherwise
  int producer_count_ = 0;
  int consumer_count_ = 0;
  /// Shared with every rank of the channel (null for default handles).
  std::shared_ptr<const Shape> shape_;
};

}  // namespace ds::stream
