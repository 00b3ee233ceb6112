// The simulated parallel machine: engine + fabric + file system + the
// message matching/transport core that the Rank facade and the collective
// state machines sit on.
#pragma once

#include <functional>
#include <memory>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "fs/filesystem.hpp"
#include "mpi/comm.hpp"
#include "mpi/ops.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "resilience/agreement.hpp"
#include "resilience/fault.hpp"
#include "sim/engine.hpp"

namespace ds::mpi {

class Rank;

struct MachineConfig {
  int world_size = 1;
  net::NetworkConfig network = net::NetworkConfig::aries_like();
  fs::FsConfig filesystem = fs::FsConfig::lustre_like();
  sim::EngineConfig engine{};
  /// Fault-injection schedule executed during run() (see resilience/fault.hpp).
  sim::FaultPlan faults{};
  /// Observability switches (ds::obs): span tracing and the metrics
  /// registry. Off by default — the hot path pays one null check per hook
  /// when disabled. `engine.record_trace` implies `observability.trace`
  /// (and vice versa), so legacy trace users keep working.
  obs::ObsConfig observability{};
  /// When nonzero, every collective arms a watchdog: an instance still
  /// incomplete after this much virtual time throws CollectiveTimeout out of
  /// run() instead of wedging the event loop. Off by default; tests enable
  /// it so a future non-failure-aware hang fails in bounded virtual time
  /// rather than hanging ctest.
  util::SimTime collective_timeout = 0;

  [[nodiscard]] static MachineConfig testbed(int world_size) {
    MachineConfig c;
    c.world_size = world_size;
    return c;
  }
};

class Machine {
 public:
  explicit Machine(MachineConfig config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Spawn one fiber per world rank running `program`, then run the engine
  /// to completion. Returns the virtual makespan (latest event time). When
  /// the run ends by exception (DeadlockError, CollectiveTimeout, a throwing
  /// program), every unfinished rank is fail-stopped and unwound before the
  /// exception propagates, so objects on its stack are destroyed rather
  /// than freed with the stack.
  util::SimTime run(std::function<void(Rank&)> program);

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] fs::FileSystem& filesystem() noexcept { return filesystem_; }

  /// Metrics registry (ds::obs), or nullptr when
  /// MachineConfig::observability.metrics is off. Runtime layers feed it at
  /// lifecycle points; machine collectors (fabric link bytes/occupancy,
  /// op-pool stats, engine event count) snapshot on collect()/to_json().
  [[nodiscard]] obs::Metrics* metrics() noexcept { return metrics_.get(); }
  [[nodiscard]] bool metrics_enabled() const noexcept {
    return metrics_ != nullptr;
  }
  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] int world_size() const noexcept { return config_.world_size; }
  [[nodiscard]] const Comm& world() const noexcept { return world_; }

  // ---- runtime services (used by Rank, collectives, streams) ----

  /// Transport a message. Charges no CPU time (callers charge o_s/o_r);
  /// reserves fabric ports, schedules arrival and sender-completion events.
  /// Callable from fiber or event context. The returned op comes from the
  /// machine's freelist pool and recycles when the last reference drops.
  detail::OpRef<detail::SendOp> post_send(std::uint64_t context,
                                          int src_comm_rank, int src_world,
                                          int dst_world, int tag, SendBuf data,
                                          sim::Callback on_complete = {});

  /// Post a receive; matches immediately against unexpected arrivals.
  /// `fused_wake` fuses the waiter's wake with the o_r charge: completion
  /// resumes a blocked waiter at completion-time + o_r with the overhead
  /// pre-charged, replacing the wake + separate-advance pair (streams'
  /// per-message context-switch floor). No effect on receives that complete
  /// synchronously or are tested/continued instead of waited on.
  ///
  /// `src_world`, when >= 0, names the world rank of the only sender that
  /// can match: if that rank is already dead (and no message of its outran
  /// the crash into the unexpected queue), the receive completes immediately
  /// with Status::failed, and if it dies while the receive is posted,
  /// kill_rank completes it the same way (satisfied-by-failure). Receives
  /// with kAnySource keep the pre-existing semantics.
  detail::OpRef<detail::RecvOp> post_recv(std::uint64_t context, int dst_world,
                                          int src_filter, int tag_filter,
                                          RecvBuf out,
                                          sim::Callback on_complete = {},
                                          bool fused_wake = false,
                                          int src_world = kAnySource);

  /// Non-consuming look into dst's unexpected queue. Returns true and fills
  /// `out` when a matching message has arrived.
  bool match_probe(std::uint64_t context, int dst_world, int src_filter,
                   int tag_filter, Status* out);

  /// Register a fiber to be woken at the next arrival for dst_world.
  void add_probe_waiter(int dst_world, int pid);

  /// Deterministic derived context id (same inputs -> same id on all ranks,
  /// no coordination needed).
  [[nodiscard]] static std::uint64_t derive_context(std::uint64_t parent,
                                                    std::uint64_t salt,
                                                    std::uint64_t color) noexcept;

  /// Mark an op complete: fire continuation, wake waiter.
  void complete_op(detail::OpState& op);

  /// Freelist pool statistics (slots created vs. acquisitions served from
  /// the freelist) for benches and the pooled-reuse tests.
  struct PoolStats {
    detail::OpPoolStats send;
    detail::OpPoolStats recv;
  };
  [[nodiscard]] PoolStats pool_stats() const noexcept {
    return PoolStats{send_pool_.stats(), recv_pool_.stats()};
  }

  /// Live matching-context buckets in `world_rank`'s mailbox (introspection
  /// for the lazy bucket sweep: dead contexts must not accumulate).
  [[nodiscard]] std::size_t mailbox_context_count(int world_rank) const {
    return mailboxes_.at(static_cast<std::size_t>(world_rank)).contexts.size();
  }

  // ---- fault injection / failure record (resilience subsystem) ----

  /// True once `world_rank` has been crashed (and not restarted).
  [[nodiscard]] bool rank_failed(int world_rank) const noexcept {
    return dead_[static_cast<std::size_t>(world_rank)] != 0;
  }
  /// Monotone counter bumped on every crash: layers that must react to
  /// failures (stream failover) compare it against a cached value instead of
  /// scanning the dead set on every operation.
  [[nodiscard]] std::uint64_t failure_epoch() const noexcept {
    return failure_epoch_;
  }
  /// Monotone counter bumped on every rank restart (the rejoin side of the
  /// membership signal). Streams compare it against a cached value to notice
  /// that a previously dead rank is live again and rebalance flows back.
  [[nodiscard]] std::uint64_t rejoin_epoch() const noexcept {
    return rejoin_epoch_;
  }
  /// How many times `world_rank`'s program fiber has been (re)started; 0 for
  /// the original incarnation. Restart-aware programs branch on this.
  [[nodiscard]] int incarnation(int world_rank) const noexcept {
    return incarnation_[static_cast<std::size_t>(world_rank)];
  }

  /// Fail-stop `world_rank` now (fiber or event context): marks it dead,
  /// drops its unexpected messages (releasing their pool slots), completes
  /// its posted receives with Status::failed (waking the fiber so it can
  /// unwind via RankFailure), and wakes registered failure waiters. Messages
  /// already in flight toward the rank are dropped on arrival; rendezvous
  /// senders targeting it complete without transferring.
  void kill_rank(int world_rank);

  /// Respawn the program fiber of a previously crashed rank (incarnation
  /// bumped). The new fiber starts at the current virtual time with a fresh
  /// stack; reintegration into application protocols is the program's job.
  void restart_rank(int world_rank);

  /// Throw RankFailure if `world_rank` has been crashed. Called by the Rank
  /// facade at every runtime interaction — the fail-stop observation point.
  void ensure_alive(int world_rank) const {
    if (rank_failed(world_rank)) throw RankFailure(world_rank);
  }

  /// Register the calling fiber to be woken at the next crash or rejoin
  /// (one-shot, like add_probe_waiter): used by blocking protocol loops
  /// (credit/term waits) that must re-evaluate routing when membership moves.
  void add_failure_waiter(int pid);

  /// Fetch-or-create the shared agreement ledger for one Rank::agree
  /// instance (`key` = context derived from the communicator and the
  /// per-context agreement sequence number, so every participant of the
  /// same call lands on the same ledger). `release_agreement` drops the
  /// entry once the last live participant has read the frozen result.
  [[nodiscard]] std::shared_ptr<resilience::Agreement> agreement(
      std::uint64_t key, int size);
  void release_agreement(std::uint64_t key);

  /// Machine-wide interning of immutable set-up state. Every rank of a
  /// collective set-up step derives the same value; the first caller builds
  /// it with `make()` and every later caller whose `matches(existing)`
  /// holds shares that one copy, so a read-only table costs O(P) per
  /// machine instead of O(P) per rank. `key` only buckets the lookup: a hit
  /// also requires `matches`, so equal keys with different content (a
  /// channel id reused with another role vector) never alias. Entries are
  /// held weakly: a value is freed once no rank refers to it, and its
  /// entry is dropped at the next lookup of its key.
  template <typename T, typename Match, typename Make>
  [[nodiscard]] std::shared_ptr<const T> intern(std::uint64_t key,
                                                const Match& matches,
                                                const Make& make);

  /// The communicator of `context` over `world_ranks`, sharing its member
  /// table with every live communicator interned with the same context and
  /// members (Rank::split's colours, a channel's survivor retry).
  [[nodiscard]] Comm intern_comm(std::uint64_t context,
                                 std::vector<int> world_ranks);

  /// Control-message wire size used by rendezvous handshakes.
  static constexpr std::size_t kControlBytes = 64;

 private:
  void spawn_rank(int r);
  void install_faults();
  void apply_fault(const sim::FaultEvent& event);
  void deposit(const detail::OpRef<detail::SendOp>& msg);
  void start_transfer(const detail::OpRef<detail::RecvOp>& recv,
                      const detail::OpRef<detail::SendOp>& send);
  void finish_delivery(const detail::OpRef<detail::RecvOp>& recv,
                       const detail::OpRef<detail::SendOp>& send);
  /// Complete a receive that can never match with Status::failed.
  void fail_recv(detail::RecvOp& recv);

  MachineConfig config_;
  // The pools are declared first: engine events and mailbox queues hold
  // references into them, so the pools must be destroyed last.
  detail::OpPool<detail::SendOp> send_pool_;
  detail::OpPool<detail::RecvOp> recv_pool_;
  sim::Engine engine_;
  net::Fabric fabric_;
  fs::FileSystem filesystem_;
  std::unique_ptr<obs::Metrics> metrics_;  ///< null = metrics disabled
  Comm world_;
  std::vector<detail::Mailbox> mailboxes_;  // by world rank

  // fault-injection state
  std::function<void(Rank&)> program_;     ///< for restart_rank respawns
  std::vector<int> pids_;                  ///< engine pid per world rank
  std::vector<std::uint8_t> dead_;         ///< fail-stopped ranks
  std::vector<int> incarnation_;           ///< fiber (re)starts per rank
  std::uint64_t failure_epoch_ = 0;
  std::uint64_t rejoin_epoch_ = 0;
  std::vector<int> failure_waiters_;  ///< pids to wake on the next crash/rejoin
  /// Live agreement ledgers (see agreement()); erased when read out.
  std::unordered_map<std::uint64_t, std::shared_ptr<resilience::Agreement>>
      agreements_;
  /// Interned set-up state (see intern()), bucketed by key.
  struct Interned {
    const std::type_info* type;
    std::weak_ptr<const void> value;
  };
  std::unordered_map<std::uint64_t, std::vector<Interned>> interned_;
};

template <typename T, typename Match, typename Make>
std::shared_ptr<const T> Machine::intern(std::uint64_t key,
                                         const Match& matches,
                                         const Make& make) {
  std::vector<Interned>& bucket = interned_[key];
  std::erase_if(bucket, [](const Interned& e) { return e.value.expired(); });
  for (const Interned& e : bucket) {
    if (*e.type != typeid(T)) continue;
    auto held = std::static_pointer_cast<const T>(e.value.lock());
    if (matches(*held)) return held;
  }
  std::shared_ptr<const T> made = make();
  // Looked up again: `make` may itself intern (a channel shape builds its
  // communicator), and that may have added to this very bucket.
  interned_[key].push_back(Interned{&typeid(T), made});
  return made;
}

}  // namespace ds::mpi
