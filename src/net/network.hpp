// Network cost model (LogGP family) and machine-structure configuration.
//
// Parameters follow Alexandrov/Culler LogGP extended with the two effects the
// paper's results hinge on:
//
//  * per-endpoint serialization — each rank's NIC transmits and drains one
//    message at a time at link bandwidth, so a rank addressed by thousands of
//    peers becomes a hotspot (Fig. 5's master-congestion uptick, Fig. 8's
//    shared-file serialization);
//  * node locality — ranks on the same node (32 per node, as on Beskow's
//    XC40) communicate with lower latency and higher bandwidth.
//
// On top of the endpoint model sits a pluggable machine structure
// (TopologyConfig -> net::Topology): nodes attach to the network through
// shared up/down links, and fat-tree pods / dragonfly groups add a second
// tier whose bandwidth taper is the bisection knob. The flat topology (the
// default) has no shared links and reproduces the original per-endpoint
// model bit for bit.
//
// The model is *costs only*: stateful link occupancy lives in net::Fabric.
#pragma once

#include <cstddef>
#include <string>

#include "util/time.hpp"

namespace ds::net {

/// Machine structure for the pluggable topology layer (see net::Topology).
/// The flat kind models no shared links — exactly the historical behavior.
struct TopologyConfig {
  enum class Kind {
    Flat,      ///< no shared links; endpoints contend only at their own ports
    TwoLevel,  ///< node-hierarchical: per-node up/down links, one switch tier
    FatTree,   ///< nodes in pods; inter-pod traffic adds pod up/down links
    Dragonfly  ///< nodes in groups; inter-group traffic adds global links
  };
  Kind kind = Kind::Flat;

  /// Nodes per fat-tree pod / dragonfly group. <= 0 picks a near-square
  /// split (ceil(sqrt(nodes))) so both tiers carry comparable fan-out.
  int nodes_per_pod = 0;

  /// Bandwidth taper on node up/down links: byte-time multiplier (>= 1).
  /// Models oversubscribed node injection (many NICs behind one switch port).
  double node_link_taper = 1.0;

  /// Bandwidth taper on pod/global links — the bisection-bandwidth knob.
  /// 1 = full bisection; 4 = a 4:1 tapered upper tier.
  double tier_link_taper = 1.0;

  [[nodiscard]] bool flat() const noexcept { return kind == Kind::Flat; }
  [[nodiscard]] const char* name() const noexcept;

  /// Parse a topology family by name ("flat", "twolevel", "fattree",
  /// "dragonfly"; hyphenated spellings accepted). Throws std::invalid_argument
  /// on unknown names.
  [[nodiscard]] static TopologyConfig named(const std::string& name);
};

struct NetworkConfig {
  /// One-way wire latency between nodes.
  util::SimTime latency = util::nanoseconds(1300);
  /// One-way latency inside a node (shared memory transport).
  util::SimTime latency_intra_node = util::nanoseconds(250);

  /// Inter-node per-byte time in ns/byte (8 GB/s ~ 0.125 ns/B).
  double ns_per_byte = 0.125;
  /// Intra-node per-byte time (shared memory ~ 20 GB/s).
  double ns_per_byte_intra_node = 0.05;

  /// Sender CPU overhead per message (o_s): stack traversal, descriptor setup.
  util::SimTime send_overhead = util::nanoseconds(450);
  /// Receiver CPU overhead per message (o_r): matching, completion.
  util::SimTime recv_overhead = util::nanoseconds(450);
  /// Per-message gap at the sending NIC (g): injection-rate limit.
  util::SimTime injection_gap = util::nanoseconds(100);

  /// Messages up to this size are sent eagerly; larger ones use a rendezvous
  /// handshake (one extra round trip before the payload moves).
  std::size_t eager_threshold = 8 * 1024;

  /// Ranks per compute node for the locality model (0 = every rank remote).
  int ranks_per_node = 32;

  /// CPU time per communicator peer charged to the caller of vector
  /// collectives (alltoallv/allgatherv, and allgather, priced the same):
  /// marshalling O(P) count/displacement arrays is real work that grows
  /// with scale even when most entries are 0.
  double coll_post_ns_per_peer = 30.0;

  /// Fraction of the payload byte-time also charged to the *receiving*
  /// endpoint's drain port. 1.0 = full serialization at the receiver NIC.
  double receiver_drain_factor = 1.0;

  // ---- topology tiers (ignored by the flat topology) ----------------------

  /// Machine structure: which shared links exist and how they are shaped.
  TopologyConfig topology{};

  /// Per-byte time on a node's shared up/down link into the network. All of
  /// a node's inter-node traffic serializes through these two links, so a
  /// node whose ranks all talk off-node becomes a hotspot at its own switch
  /// port — congestion the flat model cannot express.
  double ns_per_byte_node_link = 0.125;

  /// Per-byte time on upper-tier links (fat-tree pod up/down links into the
  /// core, dragonfly per-group global links). The tier taper multiplies this.
  double ns_per_byte_tier_link = 0.125;

  /// Extra one-way latency per traversed upper-tier link (switch hop beyond
  /// the base inter-node latency): a fat-tree inter-pod path adds two of
  /// these (up through the core and back down), a dragonfly inter-group
  /// minimal path adds one per global-link endpoint.
  util::SimTime latency_tier_hop = util::nanoseconds(300);

  /// A Cray-Aries-class calibration (matches the defaults above).
  [[nodiscard]] static NetworkConfig aries_like() noexcept { return {}; }

  /// An idealized zero-latency infinite-bandwidth network (for unit tests
  /// that want pure semantics without timing).
  [[nodiscard]] static NetworkConfig ideal() noexcept;

  /// An Aries-like machine whose upper tier is oversubscribed 4:1 — the
  /// "bisection bites" calibration the paper's exascale argument targets.
  [[nodiscard]] static NetworkConfig slim_bisection() noexcept;

  [[nodiscard]] bool same_node(int rank_a, int rank_b) const noexcept {
    if (ranks_per_node <= 0) return false;
    return rank_a / ranks_per_node == rank_b / ranks_per_node;
  }

  [[nodiscard]] util::SimTime wire_latency(int src, int dst) const noexcept {
    return same_node(src, dst) ? latency_intra_node : latency;
  }

  [[nodiscard]] double byte_time(int src, int dst) const noexcept {
    return same_node(src, dst) ? ns_per_byte_intra_node : ns_per_byte;
  }

  /// Pure (stateless) end-to-end cost of one uncontended message: the LogGP
  /// sum o_s + g + n*G + L + o_r. Used by tests and the analytic model.
  /// Shared-link serialization is stateful and excluded by design.
  [[nodiscard]] util::SimTime uncontended_cost(int src, int dst,
                                               std::size_t bytes) const noexcept;
};

}  // namespace ds::net
