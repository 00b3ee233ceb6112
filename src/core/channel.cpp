#include "core/channel.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "resilience/failover.hpp"

namespace ds::stream {

Channel Channel::create(mpi::Rank& self, const mpi::Comm& parent,
                        bool is_producer, bool is_consumer,
                        ChannelConfig config) {
  if (is_producer && is_consumer)
    throw std::invalid_argument(
        "Channel::create: producer and consumer groups must be disjoint");
  if (self.rank_in(parent) < 0)
    throw std::logic_error("Channel::create: caller not in parent communicator");

  const std::int8_t my_role = is_producer ? 1 : (is_consumer ? 2 : 0);
  mpi::Comm active = parent;
  for (int attempt = 0;; ++attempt) {
    const int size = active.size();
    // Everyone learns everyone's role — the same traffic MPI_Comm_split
    // pays. Zero-initialized so a block satisfied by failure reads as "not
    // a member" instead of garbage.
    std::vector<std::int8_t> roles(static_cast<std::size_t>(size), 0);
    const mpi::Status st =
        self.allgather(active, mpi::SendBuf::of(&my_role, 1), roles.data());
    // Commit the exchange through agreement: collective outcomes may
    // diverge when a crash races the last rounds (one rank completes clean
    // before the crash instant, its neighbor observes the failure), and a
    // member that built the channel while the rest retried would leave the
    // group split forever. The agreement ORs every member's local outcome
    // and settles one failure view, so either everyone builds from this
    // exchange or everyone retries.
    const mpi::AgreeResult verdict =
        self.agree(active, st.failed ? 1u : 0u);
    if (verdict.value == 0 && verdict.clean())
      return build(self, active, roles, config);
    // A crash landed inside setup: re-derive membership from the agreed
    // survivor view and retry the exchange over it. Each retry excludes at
    // least one newly dead rank, so the loop terminates — with a channel
    // over the survivors, or with build's clean "no producers/consumers
    // left" error on every survivor alike. Never a deadlock.
    const std::uint64_t ctx = mpi::Machine::derive_context(
        parent.context(), 0x5E7B4C0ull + static_cast<std::uint64_t>(attempt),
        config.channel_id);
    active = self.machine().intern_comm(ctx, verdict.survivors);
  }
}

Channel Channel::attach(mpi::Rank& self, const mpi::Comm& parent,
                        const std::function<std::int8_t(int)>& role_of,
                        ChannelConfig config) {
  if (self.rank_in(parent) < 0)
    throw std::logic_error("Channel::attach: caller not in parent communicator");
  std::vector<std::int8_t> roles(static_cast<std::size_t>(parent.size()));
  for (int r = 0; r < parent.size(); ++r)
    roles[static_cast<std::size_t>(r)] = role_of(r);
  return build(self, parent, roles, config);
}

namespace {

/// Node-aware term-tree parents over the consumers' node ids. Leaders: the
/// first consumer index on each node (scan order makes leader < every
/// other consumer of its node, and leaders ascend). The first leader is
/// consumer 0, so the aggregator never moves. Non-leaders hang off their
/// node's leader (intra-node edges); leaders form a binary heap over their
/// positions (the only cross-node edges). Both rules keep parent index <
/// child index, so subtree walks ascend.
std::vector<int> node_aware_parents(const std::vector<int>& consumer_node) {
  const int consumers = static_cast<int>(consumer_node.size());
  std::vector<int> parent(static_cast<std::size_t>(consumers), -1);
  std::map<int, int> leader_on_node;
  std::vector<int> leaders;
  for (int c = 0; c < consumers; ++c) {
    const auto [it, inserted] =
        leader_on_node.emplace(consumer_node[static_cast<std::size_t>(c)], c);
    if (inserted)
      leaders.push_back(c);
    else
      parent[static_cast<std::size_t>(c)] = it->second;
  }
  for (std::size_t j = 1; j < leaders.size(); ++j)
    parent[static_cast<std::size_t>(leaders[j])] = leaders[(j - 1) / 2];
  return parent;
}

}  // namespace

std::shared_ptr<const Channel::Shape> Channel::make_shape(
    const mpi::Machine& machine, const mpi::Comm& parent,
    const std::vector<std::int8_t>& roles, const ChannelConfig& config,
    std::uint64_t context) {
  auto shape = std::make_shared<Shape>();
  shape->parent = parent;
  shape->roles = roles;
  shape->node_aware_term = config.node_aware_term;
  shape->resilient = config.resilient();
  shape->initially_inactive = config.initially_inactive_consumers;
  const int size = parent.size();
  std::vector<int> members;  // world ranks: producers first, then consumers
  for (const std::int8_t role : {std::int8_t{1}, std::int8_t{2}})
    for (int r = 0; r < size; ++r)
      if (roles[static_cast<std::size_t>(r)] == role)
        members.push_back(parent.world_rank(r));
  shape->producers = static_cast<int>(
      std::count(roles.begin(), roles.end(), std::int8_t{1}));
  shape->consumers = static_cast<int>(members.size()) - shape->producers;
  if (shape->producers == 0 || shape->consumers == 0)
    throw std::invalid_argument(
        "Channel::create: need at least one producer and one consumer");
  const auto consumers = static_cast<std::size_t>(shape->consumers);
  // Where each consumer lives (the machine's node structure is the same on
  // every rank).
  const int per_node = machine.config().network.ranks_per_node;
  shape->consumer_node.reserve(consumers);
  for (std::size_t i = static_cast<std::size_t>(shape->producers);
       i < members.size(); ++i)
    shape->consumer_node.push_back(per_node > 0 ? members[i] / per_node
                                                : members[i]);

  // The term tree: parents from the node structure or the flat heap, then
  // everything the protocol asks of the tree derived from them once.
  std::vector<int>& up = shape->term_parent;
  if (config.node_aware_term) {
    up = node_aware_parents(shape->consumer_node);
  } else {
    up.resize(consumers);
    for (std::size_t c = 0; c < consumers; ++c)
      up[c] = c == 0 ? -1 : static_cast<int>((c - 1) / 2);
  }
  const auto parent_of = [&](std::size_t c) {
    return static_cast<std::size_t>(up[c]);
  };
  // Children as compressed rows; scanning c upward fills each row in
  // ascending order.
  std::vector<int>& begin = shape->term_child_begin;
  std::vector<int>& children = shape->term_children;
  begin.assign(consumers + 1, 0);
  for (std::size_t c = 1; c < consumers; ++c) ++begin[parent_of(c) + 1];
  for (std::size_t c = 0; c < consumers; ++c) begin[c + 1] += begin[c];
  children.resize(consumers - 1);
  std::vector<int> next(begin.begin(), begin.end() - 1);
  for (std::size_t c = 1; c < consumers; ++c)
    children[static_cast<std::size_t>(next[parent_of(c)]++)] =
        static_cast<int>(c);
  // Subtree sizes bottom-up, then preorder numbers and depths top-down:
  // parent < child, so one pass each way sees every parent settled first.
  std::vector<int> subtree(consumers, 1);
  for (std::size_t c = consumers - 1; c > 0; --c)
    subtree[parent_of(c)] += subtree[c];
  std::vector<int> depth(consumers, 0);
  std::vector<Preorder>& order = shape->term_order;
  order.resize(consumers);
  for (std::size_t p = 0; p < consumers; ++p) {
    order[p].exit = order[p].enter + subtree[p];
    int enter = order[p].enter + 1;
    for (int i = begin[p]; i < begin[p + 1]; ++i) {
      const auto child = static_cast<std::size_t>(
          children[static_cast<std::size_t>(i)]);
      order[child].enter = enter;
      enter += subtree[child];
      depth[child] = depth[p] + 1;
      shape->term_depth = std::max(shape->term_depth, depth[child]);
    }
  }

  shape->ledger = resilience::MembershipLedger(shape->consumers);
  if (shape->resilient)
    for (const int c : shape->initially_inactive)
      shape->ledger.set_active(c, false);
  shape->comm = mpi::Comm(context, mpi::Group(std::move(members)));
  return shape;
}

Channel Channel::build(mpi::Rank& self, const mpi::Comm& parent,
                       const std::vector<std::int8_t>& roles,
                       ChannelConfig config) {
  if (config.resilient()) {
    const auto consumers =
        std::count(roles.begin(), roles.end(), std::int8_t{2});
    for (const int c : config.initially_inactive_consumers)
      if (c < 0 || c >= consumers)
        throw std::invalid_argument(
            "Channel: initially_inactive_consumers slot outside the "
            "consumer group");
  }
  const std::uint64_t ctx = mpi::Machine::derive_context(
      parent.context(), 0xC4A77E1ull, config.channel_id);
  mpi::Machine& machine = self.machine();
  // A hit needs the same role vector over the same parent members and the
  // same shape-defining config: a channel id reused (back-to-back
  // pipelines, a retry over other survivors) derives the same context with
  // a different shape. A live hit shares its ledger; once the last handle
  // of a channel is gone, the next build starts a fresh one.
  auto shape = machine.intern<Shape>(
      ctx,
      [&](const Shape& s) {
        return s.node_aware_term == config.node_aware_term &&
               s.resilient == config.resilient() &&
               s.initially_inactive == config.initially_inactive_consumers &&
               s.roles == roles &&
               (&s.parent.group() == &parent.group() ||
                s.parent.group() == parent.group());
      },
      [&] { return make_shape(machine, parent, roles, config, ctx); });

  Channel ch;
  ch.config_ = std::move(config);
  ch.producer_count_ = shape->producers;
  ch.consumer_count_ = shape->consumers;
  // Non-members keep an invalid comm -> inert handle.
  if (shape->comm.rank_of_world(self.world_rank()) >= 0) ch.comm_ = shape->comm;
  ch.shape_ = std::move(shape);
  return ch;
}

void Channel::retire_consumer(mpi::Rank& self, int c) const {
  if (!config_.resilient())
    throw std::logic_error(
        "Channel::retire_consumer: elastic membership needs a resilient "
        "channel (checkpoint_interval > 0)");
  if (c < 0 || c >= consumer_count_)
    throw std::invalid_argument("Channel::retire_consumer: no such slot");
  // The effective aggregator runs the termination protocol; a retired slot
  // stops polling, so retiring it would strand producer terms forever.
  if (c == resilience::effective_aggregator(*this, self.machine()))
    throw std::logic_error(
        "Channel::retire_consumer: cannot retire the effective aggregator "
        "(retire another slot, or crash it and let re-election run)");
  shape_->ledger.set_active(c, false);
}

void Channel::admit_consumer(mpi::Rank& self, int c) const {
  if (!config_.resilient())
    throw std::logic_error(
        "Channel::admit_consumer: elastic membership needs a resilient "
        "channel (checkpoint_interval > 0)");
  if (c < 0 || c >= consumer_count_)
    throw std::invalid_argument("Channel::admit_consumer: no such slot");
  const int world = shape_->comm.world_rank(consumer_rank(c));
  if (self.machine().rank_failed(world))
    throw std::logic_error(
        "Channel::admit_consumer: slot's rank is crashed — restart it first");
  shape_->ledger.set_active(c, true);
}

void Channel::free(mpi::Rank& self) {
  if (!valid() || self.rank_in(comm_) < 0) return;
  // A crashed rank's own unwinding must not start new communication.
  if (self.failed()) return;
  if (config_.resilient()) {
    // Agreement-based drain, replacing the formerly *skipped* quiesce: every
    // live member (including restarted incarnations that re-attached)
    // deposits, crashed members are excused by the failure record, and all
    // survivors leave with the same final membership view instead of
    // tearing down blind.
    (void)self.agree(comm_);
    return;
  }
  // The quiesce barrier is failure-aware: it completes (with a failed
  // outcome) even if a member crashed, so teardown never deadlocks.
  (void)self.barrier(comm_);
}

int Channel::my_producer_index(const mpi::Rank& self) const noexcept {
  if (!valid()) return -1;
  const int r = comm_.rank_of_world(self.world_rank());
  return (r >= 0 && r < producer_count_) ? r : -1;
}

int Channel::my_consumer_index(const mpi::Rank& self) const noexcept {
  if (!valid()) return -1;
  const int r = comm_.rank_of_world(self.world_rank());
  return r >= producer_count_ ? r - producer_count_ : -1;
}

int Channel::route(int producer, std::uint64_t seq) const noexcept {
  if (config_.mapping == ChannelConfig::Mapping::RoundRobin) {
    return static_cast<int>((static_cast<std::uint64_t>(producer) + seq) %
                            static_cast<std::uint64_t>(consumer_count_));
  }
  // Block (and the default peer for Directed): contiguous producer slices
  // share one consumer.
  return block_route(producer, producer_count_, consumer_count_);
}

int Channel::term_cross_node_edges() const noexcept {
  if (!shape_) return 0;
  int edges = 0;
  for (int c = 1; c < consumer_count_; ++c)
    if (consumer_node(c) != consumer_node(term_parent_of(c))) ++edges;
  return edges;
}

}  // namespace ds::stream
