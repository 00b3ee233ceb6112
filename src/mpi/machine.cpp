#include "mpi/machine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "mpi/rank.hpp"
#include "util/rng.hpp"

namespace ds::mpi {

namespace {
/// The legacy engine switch and the obs config must agree: either one turns
/// span tracing on (engine.record_trace predates ObsConfig and existing
/// callers still set it directly).
MachineConfig normalized(MachineConfig c) {
  c.observability.trace = c.observability.trace || c.engine.record_trace;
  c.engine.record_trace = c.observability.trace;
  return c;
}
}  // namespace

Machine::Machine(MachineConfig config)
    : config_(normalized(std::move(config))),
      engine_(config_.engine),
      fabric_(config_.network, config_.world_size),
      filesystem_(config_.filesystem),
      world_(/*context=*/1, Group::world(config_.world_size)),
      mailboxes_(static_cast<std::size_t>(config_.world_size)),
      pids_(static_cast<std::size_t>(config_.world_size), -1),
      dead_(static_cast<std::size_t>(config_.world_size), 0),
      incarnation_(static_cast<std::size_t>(config_.world_size), 0) {
  if (config_.observability.metrics) {
    metrics_ = std::make_unique<obs::Metrics>();
    // Pull-style machine state: snapshotted by collect()/to_json(), never
    // touched on the per-message path.
    metrics_->add_collector([this](obs::Metrics& m) {
      m.gauge("engine.events_executed")
          .set(static_cast<double>(engine_.events_executed()));
      m.gauge("engine.virtual_time_s").set(util::to_seconds(engine_.now()));
      const PoolStats pools = pool_stats();
      m.gauge("pool.send.created").set(static_cast<double>(pools.send.created));
      m.gauge("pool.send.reused").set(static_cast<double>(pools.send.reused()));
      m.gauge("pool.send.outstanding")
          .set(static_cast<double>(pools.send.outstanding()));
      m.gauge("pool.recv.created").set(static_cast<double>(pools.recv.created));
      m.gauge("pool.recv.reused").set(static_cast<double>(pools.recv.reused()));
      m.gauge("pool.recv.outstanding")
          .set(static_cast<double>(pools.recv.outstanding()));
      m.gauge("resilience.failure_epoch")
          .set(static_cast<double>(failure_epoch_));
      m.gauge("resilience.rejoin_epoch").set(static_cast<double>(rejoin_epoch_));
      fabric_.sample_metrics(m);
    });
  }
}

Machine::~Machine() = default;

util::SimTime Machine::run(std::function<void(Rank&)> program) {
  program_ = std::move(program);
  for (int r = 0; r < config_.world_size; ++r) spawn_rank(r);
  install_faults();
  try {
    engine_.run();
  } catch (...) {
    // Fail-stop every rank so each parked fiber, resumed once, throws
    // RankFailure out of its blocking call and unwinds. Only the dead flag:
    // kill_rank's mailbox drain and failure-waiter wakes would run protocol
    // continuations and schedule events nobody executes.
    std::fill(dead_.begin(), dead_.end(), 1);
    engine_.unwind_unfinished();
    throw;
  }
  return engine_.now();
}

void Machine::spawn_rank(int r) {
  pids_[static_cast<std::size_t>(r)] =
      engine_.spawn([this, r](sim::Process& p) {
        // Every incarnation of a world rank records on the same trace track,
        // even though restart_rank fibers get fresh engine pids.
        p.set_trace_rank(r);
        Rank rank(*this, p, r);
        try {
          program_(rank);
        } catch (const RankFailure&) {
          // Fail-stop: the crashed fiber unwinds here and simply ends; the
          // rest of the simulation keeps running.
        }
      });
}

void Machine::install_faults() {
  config_.faults.validate(config_.world_size);
  for (const sim::FaultEvent& ev : config_.faults.events)
    engine_.schedule(ev.at, [this, ev] { apply_fault(ev); });
}

void Machine::apply_fault(const sim::FaultEvent& event) {
  switch (event.kind) {
    case sim::FaultEvent::Kind::RankCrash:
      kill_rank(event.rank);
      break;
    case sim::FaultEvent::Kind::RankRestart:
      restart_rank(event.rank);
      break;
    case sim::FaultEvent::Kind::LinkDegrade:
      if (auto* t = engine_.trace())
        t->instant(event.rank, engine_.now(), "link-degrade");
      if (event.rank_b >= 0) {
        // Path form: the fault addresses the shared links on the topology
        // route (a cable/switch-port failure). No compute perturbation —
        // the endpoints' cores are healthy.
        fabric_.degrade_path(event.rank, event.rank_b, event.factor);
        if (event.duration > 0) {
          engine_.schedule_after(
              event.duration, [this, a = event.rank, b = event.rank_b] {
                fabric_.degrade_path(a, b, 1.0);
              });
        }
        break;
      }
      fabric_.set_degrade(event.rank, event.factor);
      engine_.set_compute_degrade(pids_[static_cast<std::size_t>(event.rank)],
                                  event.factor);
      if (event.duration > 0) {
        engine_.schedule_after(event.duration, [this, r = event.rank] {
          fabric_.set_degrade(r, 1.0);
          engine_.set_compute_degrade(pids_[static_cast<std::size_t>(r)], 1.0);
        });
      }
      break;
  }
}

void Machine::kill_rank(int world_rank) {
  auto& dead = dead_.at(static_cast<std::size_t>(world_rank));
  if (dead != 0) return;
  dead = 1;
  ++failure_epoch_;
  if (auto* t = engine_.trace()) {
    // Fail-stop cuts the rank's activity off mid-span; close what is open so
    // the track stays balanced, then mark the crash as an instant event.
    t->instant(world_rank, engine_.now(), "crash");
    t->close_all(world_rank, engine_.now());
  }
  if (metrics_) metrics_->counter("resilience.crashes", world_rank).add();

  // Drain the dead rank's mailbox. Unexpected arrivals are dropped — once
  // their queue references go, the pooled send ops recycle (completing any
  // rendezvous sender still waiting on a match). Posted receives complete
  // with Status::failed, waking the dead fiber so its next wait() observes
  // the crash and unwinds. Collect before completing: a continuation may
  // post a receive to this very mailbox, and touch() can insert or sweep
  // buckets of the map being walked.
  auto& box = mailboxes_.at(static_cast<std::size_t>(world_rank));
  const auto any = [](const auto&) { return true; };
  std::vector<Request> drained;
  for (auto& [context, q] : box.contexts) {
    (void)context;
    while (auto msg = q.unexpected.take_first(any))
      drained.push_back(std::move(msg));
    while (auto recv = q.posted.take_first(any))
      drained.push_back(std::move(recv));
  }
  for (const Request& op : drained) {
    if (op->kind == detail::OpKind::Recv)
      fail_recv(static_cast<detail::RecvOp&>(*op));
    else if (!op->complete)
      complete_op(*op);
  }
  // The dead fiber may be parked in probe(); wake it so it can unwind.
  for (const int pid : box.probe_waiters) engine_.wake(pid);
  box.probe_waiters.clear();

  // Satisfied-by-failure on the survivors: a posted receive that names the
  // dead rank as its only possible sender can never match now. Complete each
  // with Status::failed so failure-aware callers (collectives, p2p waits,
  // aggregated IO) observe the crash instead of deadlocking. Collect before
  // completing: completions run continuations that post new receives into
  // the very queues being scanned (and can create new context buckets).
  // Within one queue they complete newest first.
  std::vector<detail::OpRef<detail::RecvOp>> orphaned;
  const auto names_dead = [world_rank](const detail::RecvOp& recv) {
    return recv.src_world == world_rank;
  };
  for (int r = 0; r < config_.world_size; ++r) {
    if (r == world_rank || dead_[static_cast<std::size_t>(r)] != 0) continue;
    for (auto& [context, q] : mailboxes_[static_cast<std::size_t>(r)].contexts) {
      (void)context;
      const std::size_t first = orphaned.size();
      while (auto recv = q.posted.take_first(names_dead))
        orphaned.push_back(std::move(recv));
      std::reverse(orphaned.begin() + static_cast<std::ptrdiff_t>(first),
                   orphaned.end());
    }
  }
  for (const auto& recv : orphaned) fail_recv(*recv);

  // Wake blocked protocol loops (credit waits) on every rank: routing toward
  // the dead rank must be re-evaluated.
  for (const int pid : failure_waiters_) engine_.wake(pid);
  failure_waiters_.clear();
}

void Machine::restart_rank(int world_rank) {
  auto& dead = dead_.at(static_cast<std::size_t>(world_rank));
  if (dead == 0) return;
  dead = 0;
  ++incarnation_[static_cast<std::size_t>(world_rank)];
  ++rejoin_epoch_;
  if (auto* t = engine_.trace())
    t->instant(world_rank, engine_.now(), "rejoin");
  if (metrics_) metrics_->counter("resilience.rejoins", world_rank).add();
  spawn_rank(world_rank);
  // Rejoin is a membership change exactly like a crash: blocked protocol
  // loops (credit/term waits) must re-evaluate routing so flows the adopters
  // took over can be rebalanced back to the respawned rank.
  for (const int pid : failure_waiters_) engine_.wake(pid);
  failure_waiters_.clear();
}

std::shared_ptr<resilience::Agreement> Machine::agreement(std::uint64_t key,
                                                          int size) {
  auto& slot = agreements_[key];
  if (!slot) slot = std::make_shared<resilience::Agreement>(size);
  return slot;
}

void Machine::release_agreement(std::uint64_t key) { agreements_.erase(key); }

Comm Machine::intern_comm(std::uint64_t context, std::vector<int> world_ranks) {
  return Comm(intern<Comm::State>(
      context,
      [&](const Comm::State& s) { return s.group.members() == world_ranks; },
      [&] {
        return std::make_shared<const Comm::State>(
            Comm::State{context, Group(std::move(world_ranks))});
      }));
}

void Machine::add_failure_waiter(int pid) {
  // Registrations outlive individual waits (they are only consumed by the
  // next crash), so keep the list unique: one entry per fiber bounds it by
  // the world size instead of growing with every credit-stall wakeup.
  for (const int waiting : failure_waiters_)
    if (waiting == pid) return;
  failure_waiters_.push_back(pid);
}

std::uint64_t Machine::derive_context(std::uint64_t parent, std::uint64_t salt,
                                      std::uint64_t color) noexcept {
  // SplitMix-style avalanche over the triple; deterministic everywhere.
  std::uint64_t state = parent * 0x9E3779B97F4A7C15ull + salt;
  (void)util::splitmix64(state);
  state ^= color * 0xC2B2AE3D27D4EB4Full;
  return util::splitmix64(state) | 1ull;  // never 0 (0 = invalid)
}

void Machine::fail_recv(detail::RecvOp& recv) {
  recv.status = Status{};
  recv.status.failed = true;
  complete_op(recv);
}

void Machine::complete_op(detail::OpState& op) {
  op.complete = true;
  if (op.on_complete) {
    auto continuation = std::move(op.on_complete);
    op.on_complete = nullptr;
    continuation();
  }
  if (op.waiter_pid < 0) return;
  if (op.kind == detail::OpKind::Recv) {
    auto& recv = static_cast<detail::RecvOp&>(op);
    if (recv.fused_wake && !recv.overhead_charged) {
      // Fused wake/advance: resume the blocked waiter at now + o_r with the
      // receive overhead pre-charged, instead of waking it now and letting
      // Rank::wait run a separate o_r advance (one more event plus a
      // context-switch pair per message).
      recv.overhead_charged = true;
      engine_.wake_at(op.waiter_pid,
                      engine_.now() + config_.network.recv_overhead);
      return;
    }
  }
  engine_.wake(op.waiter_pid);
}

detail::OpRef<detail::SendOp> Machine::post_send(std::uint64_t context,
                                                 int src_comm_rank,
                                                 int src_world, int dst_world,
                                                 int tag, SendBuf data,
                                                 sim::Callback on_complete) {
  auto op = send_pool_.acquire();
  op->context = context;
  op->src_comm_rank = src_comm_rank;
  op->src_world = src_world;
  op->dst_world = dst_world;
  op->tag = tag;
  op->bytes = data.on_wire();
  op->on_complete = std::move(on_complete);
  if (data.ptr && data.bytes > 0) {
    // Buffered-send semantics: the payload is copied out immediately (into
    // the op's inline buffer for eager-class sizes), so the caller may reuse
    // its buffer as soon as post_send returns.
    op->store_payload(data.ptr, data.bytes);
  }
  op->mode = op->bytes > fabric_.config().eager_threshold
                 ? detail::SendMode::Rendezvous
                 : detail::SendMode::Eager;

  // Fault injection: a crashed sender emits nothing (its fiber is unwinding
  // and must not leave traffic behind); the op completes inert.
  if (rank_failed(src_world)) {
    complete_op(*op);
    return op;
  }

  const util::SimTime now = engine_.now();
  if (op->mode == detail::SendMode::Eager) {
    // Payload moves immediately; envelope+payload as one fabric message.
    const auto sched = fabric_.schedule_message(src_world, dst_world,
                                                kControlBytes + op->bytes, now);
    engine_.schedule(sched.deliver_at, [this, op] { deposit(op); });
    engine_.schedule(sched.sender_free_at, [this, op] { complete_op(*op); });
  } else {
    // Rendezvous: only the envelope moves now; the payload transfer is set
    // up in start_transfer once a matching receive exists.
    const auto sched =
        fabric_.schedule_message(src_world, dst_world, kControlBytes, now);
    engine_.schedule(sched.deliver_at, [this, op] { deposit(op); });
  }
  return op;
}

detail::OpRef<detail::RecvOp> Machine::post_recv(std::uint64_t context,
                                                 int dst_world, int src_filter,
                                                 int tag_filter, RecvBuf out,
                                                 sim::Callback on_complete,
                                                 bool fused_wake,
                                                 int src_world) {
  auto op = recv_pool_.acquire();
  op->context = context;
  op->dst_world = dst_world;
  op->src_filter = src_filter;
  op->tag_filter = tag_filter;
  op->out = out.ptr;
  op->capacity = out.bytes;
  op->on_complete = std::move(on_complete);
  op->fused_wake = fused_wake;
  op->src_world = src_world;

  auto& q = mailboxes_.at(static_cast<std::size_t>(dst_world)).touch(context);
  // The unexpected queue is scanned first even when the named sender is
  // already dead: a message that outran the crash still matches.
  if (const auto send = q.unexpected.take_first(
          [&](const detail::SendOp& s) { return detail::matches(*op, s); })) {
    start_transfer(op, send);
    return op;
  }
  if (rank_failed(dst_world) || (src_world >= 0 && rank_failed(src_world))) {
    // Satisfied-by-failure: either the only sender that could match is dead,
    // or the receiver itself is — arrivals toward it are dropped, so the
    // receive could never complete. Failing it immediately lets a crashed
    // rank's collective state machine run to structural completion (event
    // context, no fiber) instead of parking pool slots in a dead mailbox.
    fail_recv(*op);
    return op;
  }
  q.posted.push_back(op);
  return op;
}

void Machine::deposit(const detail::OpRef<detail::SendOp>& msg) {
  // Fault injection: arrivals at a crashed rank are dropped, and so are
  // arrivals *from* a rank that crashed while the message was in flight —
  // fail-stop cuts traffic off at the crash instant, matching the repair
  // protocols (a dead producer's undurable in-flight frames are excluded)
  // and the satisfied-by-failure receives (which have already completed
  // with Status::failed and must not be shadowed by a late arrival that
  // would then sit in the unexpected queue forever, leaking its pool slot).
  // Completing the op here keeps rendezvous senders (whose completion
  // normally waits for a matching receive) from blocking forever.
  if (rank_failed(msg->dst_world) || rank_failed(msg->src_world)) {
    if (!msg->complete) complete_op(*msg);
    return;
  }
  auto& box = mailboxes_.at(static_cast<std::size_t>(msg->dst_world));
  auto& q = box.touch(msg->context);
  if (const auto recv = q.posted.take_first(
          [&](const detail::RecvOp& r) { return detail::matches(r, *msg); })) {
    start_transfer(recv, msg);
    return;
  }
  q.unexpected.push_back(msg);
  if (!box.probe_waiters.empty()) {
    // wake() only enqueues resume events, so iterating in place is safe;
    // clear() (not a move) keeps the vector's capacity for the next waiter.
    for (int pid : box.probe_waiters) engine_.wake(pid);
    box.probe_waiters.clear();
  }
}

void Machine::start_transfer(const detail::OpRef<detail::RecvOp>& recv,
                             const detail::OpRef<detail::SendOp>& send) {
  if (send->mode == detail::SendMode::Eager) {
    finish_delivery(recv, send);  // payload already arrived with the envelope
    return;
  }
  // Rendezvous: clear-to-send control back to the sender, then the payload
  // crosses the fabric; both endpoints complete on their own schedule.
  const util::SimTime now = engine_.now();
  const auto cts = fabric_.schedule_message(send->dst_world, send->src_world,
                                            kControlBytes, now);
  const auto payload = fabric_.schedule_message(send->src_world, send->dst_world,
                                                send->bytes, cts.deliver_at);
  engine_.schedule(payload.sender_free_at, [this, send] { complete_op(*send); });
  engine_.schedule(payload.deliver_at,
                   [this, recv, send] { finish_delivery(recv, send); });
}

void Machine::finish_delivery(const detail::OpRef<detail::RecvOp>& recv,
                              const detail::OpRef<detail::SendOp>& send) {
  if (recv->out && send->has_payload()) {
    std::memcpy(recv->out, send->payload(),
                std::min(recv->capacity, send->payload_bytes));
  }
  recv->status = Status{send->src_comm_rank, send->tag, send->bytes,
                        send->bytes > 0 && !send->has_payload()};
  if (send->mode == detail::SendMode::Rendezvous) {
    // The sender-side completion event fires independently; nothing to do.
  }
  complete_op(*recv);
}

bool Machine::match_probe(std::uint64_t context, int dst_world, int src_filter,
                          int tag_filter, Status* out) {
  const auto& box = mailboxes_.at(static_cast<std::size_t>(dst_world));
  const auto it = box.contexts.find(context);
  if (it == box.contexts.end()) return false;
  const detail::SendOp* msg =
      it->second.unexpected.find_first([&](const detail::SendOp& s) {
        return detail::matches_filters(src_filter, tag_filter, s);
      });
  if (msg == nullptr) return false;
  if (out) *out = Status{msg->src_comm_rank, msg->tag, msg->bytes};
  return true;
}

void Machine::add_probe_waiter(int dst_world, int pid) {
  mailboxes_.at(static_cast<std::size_t>(dst_world)).probe_waiters.push_back(pid);
}

}  // namespace ds::mpi
