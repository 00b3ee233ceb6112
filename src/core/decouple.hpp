// ds::decouple — the typed, RAII pipeline facade over the MPIStream layer.
//
// The low-level API (GroupPlan / Channel / Stream, paper Sec. III-A) stays
// deliberately close to the paper's C interface: raw byte elements, manual
// channel release, hand-rolled worker/helper role dispatch. Every decoupled
// application repeated the same ~100 lines of boilerplate around it. This
// facade fuses those steps into one declarative object:
//
//   auto pipeline = decouple::Pipeline::over(self, self.world())
//                       .with_stride(16)          // or .with_alpha(0.0625)
//                       .with_worker_comm();
//   auto faces = pipeline.stream<FaceHeader>(max_face_bytes, options);
//   pipeline.run(worker_fn, helper_fn);           // role dispatch
//
// Three ideas:
//  * RAII, move-only lifetime — run() creates every declared channel in
//    declaration order (the collective order), producer streams terminate
//    automatically when their role function returns, and channels are
//    released when the Pipeline leaves scope. Call sites never invoke
//    Channel::free or Stream::terminate by hand (early termination remains
//    available for protocols that need it).
//  * Typed elements — TypedStream<Record> serializes trivially-copyable
//    records (plus an optional byte payload) and hands consumers decoded
//    Element<Record> values: no std::byte* arithmetic or memcpy at call
//    sites. RawStream keeps the byte-level interface for payload-only
//    streams and carries the opt-in AdaptiveBatcher policy.
//  * One split, many streams — the worker/helper split (GroupPlan stride or
//    alpha, or an explicit helper set) is declared once; each stream picks a
//    direction relative to it, or overrides the endpoint groups entirely.
//  * Chained stages — Pipeline::stage() partitions the parent communicator
//    into an ordered chain of role groups (worker -> helper -> helper ...);
//    stream_between() links consecutive stages, so an intermediate stage is
//    consumer of one typed stream and producer of the next. run_stages()
//    dispatches each rank to its stage function, and the RAII termination
//    pass propagates end-of-stream stage to stage: when a stage returns, its
//    outgoing streams terminate and the next stage's operate() unblocks.
//
// Collective discipline: every member of the parent communicator must
// declare the same split (or stages) and the same streams in the same order,
// then call run() / run_stages(). Stream declaration order doubles as the
// channel-creation order. Because every rank declares the same split, the
// run interns it once per machine (Machine::intern): ranks share one
// read-only layout of workers, helpers, stages and per-rank lookups, and
// keep no table sized by the parent communicator of their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/adaptive.hpp"
#include "core/channel.hpp"
#include "core/group_plan.hpp"
#include "core/stream.hpp"
#include "mpi/comm.hpp"

namespace ds::mpi {
class Rank;
}

namespace ds::decouple {

class Context;
class Pipeline;

using Mapping = stream::ChannelConfig::Mapping;
using stream::AdaptiveConfig;

/// Which way a pipeline stream flows between the two role groups.
enum class Direction { ToHelpers, ToWorkers };

/// Predicate over a parent-communicator rank. Evaluated with the same
/// arguments on every rank (it derives the collective channel roles), so it
/// must be a pure function of the rank number.
using RolePredicate = std::function<bool(int parent_rank)>;

struct StreamOptions {
  Direction direction = Direction::ToHelpers;
  /// The stream's channel: mapping, injection overhead, backpressure
  /// (max_inflight, ack_interval), coalescing, self-tuning, resilience
  /// (checkpoint_interval, manual_durability, initially_inactive_consumers)
  /// and the term-tree shape, exactly as stream::ChannelConfig documents
  /// them. Two things are the pipeline's:
  ///  * channel ids — channel.channel_id must stay 0; the pipeline numbers
  ///    its channels from the base set by Pipeline::with_channel_base;
  ///  * resilience defaults — a stream left at checkpoint_interval 0 takes
  ///    the pipeline's Pipeline::with_resilience settings, if any.
  stream::ChannelConfig channel;
  /// Endpoint overrides for streams that do not follow the worker/helper
  /// split (e.g. a reduce group's internal master stream); when set, they
  /// replace the direction-derived groups.
  RolePredicate producers;
  RolePredicate consumers;
};

/// Move-only RAII ownership of a Channel: released (collectively) when the
/// owner leaves scope. The building block Pipeline uses for every stream's
/// channel; also usable standalone with the low-level Stream API.
class ScopedChannel {
 public:
  ScopedChannel() = default;
  ScopedChannel(mpi::Rank& self, stream::Channel channel) noexcept
      : self_(&self), channel_(std::move(channel)) {}
  ScopedChannel(ScopedChannel&& other) noexcept;
  ScopedChannel& operator=(ScopedChannel&& other) noexcept;
  ScopedChannel(const ScopedChannel&) = delete;
  ScopedChannel& operator=(const ScopedChannel&) = delete;
  ~ScopedChannel();

  /// Collective over `parent`, like Channel::create.
  [[nodiscard]] static ScopedChannel create(mpi::Rank& self,
                                            const mpi::Comm& parent,
                                            bool is_producer, bool is_consumer,
                                            stream::ChannelConfig config = {});

  /// Collective over the channel members: quiesce and release early.
  /// Idempotent; also what the destructor runs.
  void release();

  [[nodiscard]] bool valid() const noexcept { return channel_.valid(); }
  [[nodiscard]] const stream::Channel& get() const noexcept { return channel_; }
  [[nodiscard]] const stream::Channel* operator->() const noexcept {
    return &channel_;
  }

 private:
  mpi::Rank* self_ = nullptr;
  stream::Channel channel_{};
};

/// A decoded stream element, valid only during the handler invocation.
/// Only the bytes the producer really sent are defined: the whole payload
/// of a send(), the record alone of a send_modeled(). Reading `payload`
/// past that yields unspecified bytes (see stream::StreamElement).
template <typename Record>
struct Element {
  Record record{};                     ///< zeroed for synthetic elements
  const std::byte* payload = nullptr;  ///< bytes after the record (real only)
  std::size_t payload_bytes = 0;       ///< wire bytes after the record
  int producer = -1;                   ///< producer index in the channel
  bool synthetic = false;              ///< modeled element: no real bytes

  /// Copy `count` payload items of U into `out` (real elements only; the
  /// record usually states how many items are meaningful). Rejects counts a
  /// corrupt or mismatched record header could smuggle past the wire size.
  template <typename U>
  void payload_to(std::vector<U>& out, std::size_t count) const {
    static_assert(std::is_trivially_copyable_v<U>);
    if (count * sizeof(U) > payload_bytes)
      throw std::length_error(
          "decouple: record-declared payload exceeds the element's wire size");
    out.resize(count);
    if (count > 0) std::memcpy(out.data(), payload, count * sizeof(U));
  }
};

/// An undecoded element for payload-only streams. As for Element, bytes
/// past the real payload delivered for the element are unspecified.
struct RawElement {
  const std::byte* data = nullptr;  ///< null for synthetic elements
  std::size_t bytes = 0;            ///< wire size
  int producer = -1;                ///< producer index in the channel
  bool synthetic = false;
};

/// Record count of an element flushed by an adaptive stream.
[[nodiscard]] std::uint32_t adaptive_record_count(const RawElement& element);

/// Role-aware RAII wrapper around one attached Stream, owned by a Pipeline
/// and obtained inside run() via Context::operator[]. Knows its Rank, so no
/// call threads `self` through; producers terminate automatically when
/// their role function returns, and a consumer that left the stream early
/// then finishes its termination protocol (stream::Stream::absorb_termination).
class StreamBase {
 public:
  StreamBase(const StreamBase&) = delete;
  StreamBase& operator=(const StreamBase&) = delete;
  virtual ~StreamBase() = default;

  // ---- producer side ----
  /// Signal end-of-stream now (paper's MPIStream_Terminate). Idempotent,
  /// and implied by the role function returning.
  virtual void terminate();

  // ---- consumer side ----
  /// Resilient streams with manual durability: acknowledge that everything
  /// consumed so far has durable effects (e.g. after a file flush); see
  /// stream::Stream::ack_durable. No-op otherwise.
  void ack_durable();
  /// Resilient tree streams (Directed/RoundRobin) with manual durability:
  /// register the hook the termination protocol runs before this consumer
  /// commits to the release barrier (its announce-ack; the release
  /// broadcast on the aggregator). The hook must flush external effects and
  /// call ack_durable — the release then certifies global durability, so
  /// producers retire replay logs only once no consumer still buffers
  /// undurable state; see stream::Stream::set_durable_point.
  void on_durable_point(std::function<void()> hook);
  /// Elastic membership: gracefully withdraw this consumer from the stream
  /// (resilient streams only). Deactivates the slot in the shared ledger,
  /// hands the dedup cursors of every owned flow to the failover target, and
  /// marks the stream exhausted; see stream::Stream::retire.
  void retire();
  /// Elastic membership control plane (resilient streams only, callable
  /// from any member): deactivate / re-admit consumer slot `c` in the
  /// shared ledger. Live peers observe the membership change and rebalance;
  /// see Channel::retire_consumer / admit_consumer.
  void retire_consumer(int c);
  void admit_consumer(int c);
  /// Process elements FCFS until every routed producer terminated.
  std::uint64_t operate();
  /// Process arrivals while `keep_going()` stays true (re-checked after
  /// each element) and unterminated producers remain.
  std::uint64_t operate_while(const std::function<bool()>& keep_going);
  /// Consume pending arrivals without blocking until one data element has
  /// been handled; terminations on the way are absorbed silently. Returns
  /// true iff a data element was consumed.
  bool poll_one();
  /// Consume every data element already pending without blocking; returns
  /// the count (terminations absorbed on the way are not counted).
  std::uint64_t drain();

  // ---- introspection ----
  [[nodiscard]] bool is_producer() const;
  [[nodiscard]] bool is_consumer() const;
  [[nodiscard]] int producer_index() const;
  [[nodiscard]] int consumer_index() const;
  [[nodiscard]] std::uint64_t elements_sent() const noexcept {
    return stream_.elements_sent();
  }
  /// Termination-protocol messages this rank has sent on this stream.
  [[nodiscard]] std::uint64_t term_messages_sent() const noexcept {
    return stream_.term_messages_sent();
  }
  /// Frame messages this producer has posted (every element travels in
  /// one; several share a frame when coalescing packs them).
  [[nodiscard]] std::uint64_t frames_sent() const noexcept {
    return stream_.frames_sent();
  }
  /// The producer's current effective coalesce budget (self-tuned), in wire
  /// bytes; 0 when coalescing is off or nothing has been sent.
  [[nodiscard]] std::uint32_t coalesce_budget_now() const noexcept {
    return stream_.coalesce_budget_now();
  }
  /// The producer's current effective credit window (adaptively grown when
  /// flow_autotune is on; equals max_inflight otherwise).
  [[nodiscard]] std::uint32_t max_inflight_now() const noexcept {
    return stream_.max_inflight_now();
  }
  /// Elements this producer re-posted from replay logs across failovers.
  [[nodiscard]] std::uint64_t replayed_elements() const noexcept {
    return stream_.replayed_elements();
  }
  /// Elements currently retained for replay (producer side).
  [[nodiscard]] std::uint64_t retained_elements() const noexcept {
    return stream_.retained_elements();
  }
  /// Flow rebinds this producer performed after consumer crashes.
  [[nodiscard]] std::uint32_t failovers() const noexcept {
    return stream_.failovers();
  }
  /// Duplicate deliveries suppressed by the exactly-once filter (consumer).
  [[nodiscard]] std::uint64_t duplicates_dropped() const noexcept {
    return stream_.duplicates_dropped();
  }
  /// Voluntary flow handbacks/moves this producer performed after rejoins
  /// or elastic membership changes (vs. failovers(), which counts
  /// crash-driven rebinds).
  [[nodiscard]] std::uint32_t rebalances() const noexcept {
    return stream_.rebalances();
  }
  /// Live (producer, flow) entries in the consumer's exactly-once filter —
  /// the dedup memory bound observable (entries are erased on handback and
  /// retire).
  [[nodiscard]] std::size_t dedup_entries() const noexcept {
    return stream_.dedup_entries();
  }
  /// True once all routed producers have terminated (consumer side).
  [[nodiscard]] bool exhausted() const noexcept { return stream_.exhausted(); }
  [[nodiscard]] std::size_t element_size() const noexcept {
    return stream_.element_size();
  }
  [[nodiscard]] const stream::Channel& channel() const noexcept {
    return channel_.get();
  }

 protected:
  StreamBase() = default;
  /// Decode and hand one arrived element to the user handler.
  virtual void dispatch(const stream::StreamElement& element) = 0;
  /// Hook run once the stream is attached (e.g. to set up a batcher).
  virtual void on_bound() {}

  void send_raw(mpi::SendBuf element);
  void send_raw_to(int consumer, mpi::SendBuf element);
  [[nodiscard]] mpi::Rank& self() const;
  [[nodiscard]] stream::Stream& stream() noexcept { return stream_; }

  std::vector<std::byte> scratch_;  ///< record+payload packing buffer

 private:
  friend class Pipeline;
  void bind(mpi::Rank& self, ScopedChannel channel, std::size_t element_bytes,
            std::uint64_t stream_id);

  mpi::Rank* self_ = nullptr;
  ScopedChannel channel_;
  stream::Stream stream_;
};

/// A stream of trivially-copyable `Record`s, each optionally followed by a
/// byte payload of up to the declared maximum. Producers call send*;
/// consumers set on_receive and call operate/poll.
template <typename Record>
class TypedStream final : public StreamBase {
  static_assert(std::is_trivially_copyable_v<Record>,
                "TypedStream records must be trivially copyable");

 public:
  using Handler = std::function<void(const Element<Record>&)>;

  /// Consumer: operator applied on-the-fly to each decoded element. Set it
  /// before operate()/poll_one(); elements arriving without a handler are
  /// consumed silently (termination accounting still runs).
  void on_receive(Handler handler) { handler_ = std::move(handler); }

  // ---- routed by the channel mapping ----
  void send(const Record& record) { send_raw(mpi::SendBuf::of(&record, 1)); }
  template <typename U>
  void send(const Record& record, const U* payload, std::size_t count) {
    send_raw(pack(record, payload, count));
  }
  /// Real record on the wire, modeled payload of `payload_wire_bytes`.
  void send_modeled(const Record& record, std::size_t payload_wire_bytes) {
    send_raw(
        mpi::SendBuf::header_only(record, sizeof(Record) + payload_wire_bytes));
  }
  /// Fully synthetic full-size element.
  void send_synthetic() { send_raw(mpi::SendBuf::synthetic(element_size())); }

  // ---- directed to an explicit consumer index (Directed mapping) ----
  void send_to(int consumer, const Record& record) {
    send_raw_to(consumer, mpi::SendBuf::of(&record, 1));
  }
  template <typename U>
  void send_to(int consumer, const Record& record, const U* payload,
               std::size_t count) {
    send_raw_to(consumer, pack(record, payload, count));
  }
  void send_modeled_to(int consumer, const Record& record,
                       std::size_t payload_wire_bytes) {
    send_raw_to(consumer, mpi::SendBuf::header_only(
                              record, sizeof(Record) + payload_wire_bytes));
  }

 private:
  template <typename U>
  [[nodiscard]] mpi::SendBuf pack(const Record& record, const U* payload,
                                  std::size_t count) {
    static_assert(std::is_trivially_copyable_v<U>,
                  "TypedStream payloads must be trivially copyable");
    const std::size_t payload_bytes = count * sizeof(U);
    scratch_.resize(sizeof(Record) + payload_bytes);
    std::memcpy(scratch_.data(), &record, sizeof(Record));
    if (payload_bytes > 0)
      std::memcpy(scratch_.data() + sizeof(Record), payload, payload_bytes);
    return mpi::SendBuf{scratch_.data(), scratch_.size()};
  }

  void dispatch(const stream::StreamElement& el) override {
    if (!handler_) return;
    Element<Record> typed;
    typed.producer = el.producer;
    typed.synthetic = el.data == nullptr;
    if (el.data != nullptr) {
      // A truncated or mismatched element must not turn into an overread of
      // the wire payload: the record header has to be fully present.
      if (el.bytes < sizeof(Record))
        throw std::length_error(
            "decouple: element smaller than its record type");
      std::memcpy(&typed.record, el.data, sizeof(Record));
      typed.payload = el.data + sizeof(Record);
    }
    typed.payload_bytes = el.bytes > sizeof(Record) ? el.bytes - sizeof(Record) : 0;
    handler_(typed);
  }

  Handler handler_;
};

/// A payload-only stream (no record header): raw bytes in, raw bytes out.
/// Streams declared via Pipeline::adaptive_stream add the producer-side
/// AdaptiveBatcher policy: push() batches logical records into elements
/// whose size adapts online (paper Sec. III future work).
class RawStream final : public StreamBase {
 public:
  using Handler = std::function<void(const RawElement&)>;

  void on_receive(Handler handler) { handler_ = std::move(handler); }

  void send(const void* data, std::size_t bytes);
  template <typename U>
  void send_items(const U* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<U>);
    send(data, count * sizeof(U));
  }
  /// Fully synthetic element occupying `wire_bytes` on the simulated wire.
  void send_synthetic(std::size_t wire_bytes);

  /// Flushes any partial adaptive batch, then terminates.
  void terminate() override;

  // ---- adaptive producer interface (Pipeline::adaptive_stream only) ----
  /// Append one logical record; flushes when the batch target is reached.
  void push();
  /// Flush a partial batch, if any.
  void flush();
  [[nodiscard]] bool is_adaptive() const noexcept { return adaptive_.has_value(); }
  [[nodiscard]] std::uint32_t current_batch() const;
  [[nodiscard]] std::uint64_t records_sent() const;

 private:
  friend class Pipeline;
  void on_bound() override;
  void dispatch(const stream::StreamElement& el) override {
    if (!handler_) return;
    handler_(RawElement{el.data, el.bytes, el.producer, el.data == nullptr});
  }
  [[nodiscard]] stream::AdaptiveBatcher& batcher();
  [[nodiscard]] const stream::AdaptiveBatcher& batcher() const;

  Handler handler_;
  std::optional<AdaptiveConfig> adaptive_;
  std::size_t record_bytes_ = 0;
  std::optional<stream::AdaptiveBatcher> batcher_;
};

/// Cheap token returned by stream declaration; redeemed inside run() with
/// Context::operator[]. Only valid against the pipeline that issued it.
template <typename Record>
class StreamHandle {
 public:
  StreamHandle() = default;
  [[nodiscard]] bool valid() const noexcept { return index_ >= 0; }

 private:
  friend class Context;
  friend class Pipeline;
  explicit StreamHandle(int index) : index_(index) {}
  int index_ = -1;
};

class RawStreamHandle {
 public:
  RawStreamHandle() = default;
  [[nodiscard]] bool valid() const noexcept { return index_ >= 0; }

 private:
  friend class Context;
  friend class Pipeline;
  explicit RawStreamHandle(int index) : index_(index) {}
  int index_ = -1;
};

/// Token for a declared chain stage; redeemed with Pipeline::stream_between
/// and Context::stage_size / stage_ranks.
class StageHandle {
 public:
  StageHandle() = default;
  [[nodiscard]] bool valid() const noexcept { return index_ >= 0; }

 private:
  friend class Context;
  friend class Pipeline;
  explicit StageHandle(int index) : index_(index) {}
  int index_ = -1;
};

/// What a role function sees: identity within the split, the split itself,
/// and the pipeline's bound streams.
class Context {
 public:
  [[nodiscard]] mpi::Rank& self() const noexcept;
  [[nodiscard]] const mpi::Comm& parent() const noexcept;
  [[nodiscard]] int parent_rank() const noexcept;

  [[nodiscard]] bool is_worker() const noexcept;
  [[nodiscard]] bool is_helper() const noexcept { return !is_worker(); }
  /// Index in the worker (helper) group, or -1 when the other role.
  [[nodiscard]] int worker_index() const noexcept;
  [[nodiscard]] int helper_index() const noexcept;
  [[nodiscard]] int worker_count() const noexcept;
  [[nodiscard]] int helper_count() const noexcept;
  /// Parent-comm ranks, ascending. References into the pipeline's layout,
  /// which every rank of the pipeline shares (one copy per machine).
  [[nodiscard]] const std::vector<int>& workers() const noexcept;
  [[nodiscard]] const std::vector<int>& helpers() const noexcept;
  /// Balanced block assignment of workers to helpers: the helper index
  /// responsible for `worker` under the Block consumer mapping.
  [[nodiscard]] int helper_of(int worker) const noexcept;
  [[nodiscard]] double alpha() const noexcept;

  /// The workers-only communicator (requires with_worker_comm; invalid on
  /// helpers, MPI_UNDEFINED-style).
  [[nodiscard]] const mpi::Comm& worker_comm() const;

  // ---- chained stages (run_stages pipelines only) ----
  /// Number of declared stages (0 for a classic worker/helper run).
  [[nodiscard]] int stage_count() const noexcept;
  /// Index of the stage this rank belongs to, or -1 when unassigned.
  [[nodiscard]] int stage_index() const noexcept;
  /// This rank's position within its stage, or -1 when unassigned.
  [[nodiscard]] int stage_member_index() const noexcept;
  /// Member count of stage `stage`.
  [[nodiscard]] int stage_size(int stage) const;
  [[nodiscard]] int stage_size(StageHandle stage) const;
  /// Parent-comm ranks of stage `stage`, ascending (shared storage, like
  /// workers()).
  [[nodiscard]] const std::vector<int>& stage_ranks(int stage) const;

  template <typename Record>
  [[nodiscard]] TypedStream<Record>& operator[](StreamHandle<Record> h) const {
    return static_cast<TypedStream<Record>&>(slot(h.index_));
  }
  [[nodiscard]] RawStream& operator[](RawStreamHandle h) const {
    return static_cast<RawStream&>(slot(h.index_));
  }

 private:
  friend class Pipeline;
  Context(Pipeline& pipeline, int parent_rank)
      : pipeline_(&pipeline), parent_rank_(parent_rank) {}
  [[nodiscard]] StreamBase& slot(int index) const;

  Pipeline* pipeline_;
  int parent_rank_;
};

/// The pipeline builder/runner. Declare the split and the streams (same
/// order on every rank), then run(worker_fn, helper_fn).
class Pipeline {
 public:
  [[nodiscard]] static Pipeline over(mpi::Rank& self, const mpi::Comm& parent);

  Pipeline(Pipeline&&) noexcept = default;
  Pipeline& operator=(Pipeline&&) noexcept = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
  ~Pipeline() = default;  // slots release their channels in declaration order

  // ---- split declaration (exactly one of the first four) ----
  /// Every `stride`-th parent rank becomes a helper (GroupPlan::interleaved).
  Pipeline& with_stride(int stride) &;
  Pipeline&& with_stride(int stride) && { return std::move(with_stride(stride)); }
  /// Closest interleaved split to helper fraction `alpha` (paper: 12.5%,
  /// 6.25%, 3.125%).
  Pipeline& with_alpha(double alpha) &;
  Pipeline&& with_alpha(double alpha) && { return std::move(with_alpha(alpha)); }
  /// Adopt a split computed elsewhere (e.g. one shared with result sizing).
  Pipeline& with_plan(const stream::GroupPlan& plan) &;
  Pipeline&& with_plan(const stream::GroupPlan& plan) && {
    return std::move(with_plan(plan));
  }
  /// Explicit helper set; every other parent rank is a worker.
  Pipeline& with_helper_ranks(std::vector<int> helpers) &;
  Pipeline&& with_helper_ranks(std::vector<int> helpers) && {
    return std::move(with_helper_ranks(std::move(helpers)));
  }
  /// Topology-aware split: dedicate the last `helpers_per_node` ranks of
  /// each compute node (stream::Placement over the machine's node
  /// structure) to helper duty, so every worker streams to a helper on its
  /// own node — over shared memory, off the fabric's shared links. Nodes
  /// contributing a single rank keep it as a worker. Throws when no node
  /// hosts two members of the parent communicator (no co-location exists).
  Pipeline& with_node_placement(int helpers_per_node = 1) &;
  Pipeline&& with_node_placement(int helpers_per_node = 1) && {
    return std::move(with_node_placement(helpers_per_node));
  }
  /// Also split a workers-only communicator (for in-group collectives).
  Pipeline& with_worker_comm() &;
  Pipeline&& with_worker_comm() && { return std::move(with_worker_comm()); }
  /// Base for the channel ids this pipeline assigns (base + declaration
  /// index). Only needed when two pipelines are concurrently live over the
  /// same parent communicator: give each a distinct base so their derived
  /// matching contexts never collide.
  Pipeline& with_channel_base(std::uint64_t base) &;
  Pipeline&& with_channel_base(std::uint64_t base) && {
    return std::move(with_channel_base(base));
  }
  /// Resilience defaults for every stream of this pipeline: stream epochs,
  /// bounded replay, and consumer failover (see README "Resilience").
  ///  * `checkpoint_interval` — elements per epoch on each flow: producers
  ///    cut an epoch marker every `checkpoint_interval` elements and retain
  ///    unacknowledged frames for replay, which bounds the replay window
  ///    (and, with automatic durability, the retained memory) per flow.
  ///    Must be > 0: resilience without epochs would retain unboundedly.
  ///  * `manual_durability` — when false, consumers acknowledge durability
  ///    automatically at every epoch boundary ("processed by the operator"
  ///    counts as durable), which fits in-memory consumers such as reduce
  ///    stages. Set true for consumers with external effects (file
  ///    writers): the application calls StreamBase::ack_durable once its
  ///    effects are safe (e.g. after a file flush), and replay after a
  ///    crash covers exactly the elements whose effects died with the
  ///    consumer.
  /// A stream whose options set channel.checkpoint_interval keeps its own
  /// settings. Every other stream takes this interval, and its own
  /// manual_durability is ORed with this one (a stream-level `true` is
  /// never overridden).
  Pipeline& with_resilience(std::uint32_t checkpoint_interval = 1024,
                            bool manual_durability = false) &;
  Pipeline&& with_resilience(std::uint32_t checkpoint_interval = 1024,
                             bool manual_durability = false) && {
    return std::move(with_resilience(checkpoint_interval, manual_durability));
  }

  // ---- stream declaration ----
  /// A stream of `Record`s, each carrying up to `max_payload_bytes` extra.
  template <typename Record>
  [[nodiscard]] StreamHandle<Record> stream(std::size_t max_payload_bytes = 0,
                                            StreamOptions options = {}) {
    return StreamHandle<Record>(add_slot(std::make_unique<TypedStream<Record>>(),
                                         sizeof(Record) + max_payload_bytes,
                                         std::move(options), StageLink{}));
  }
  /// A payload-only stream of `element_bytes`-sized elements.
  [[nodiscard]] RawStreamHandle raw_stream(std::size_t element_bytes,
                                           StreamOptions options = {});
  /// A payload-only stream whose producers batch `record_bytes` logical
  /// records per element under the adaptive granularity policy.
  [[nodiscard]] RawStreamHandle adaptive_stream(std::size_t record_bytes,
                                                AdaptiveConfig adaptive,
                                                StreamOptions options = {});

  // ---- chained-stage declaration ----
  /// Append a stage to the chain: the given parent-comm ranks form the next
  /// role group. Stages must be pairwise disjoint; every rank declares the
  /// same stages in the same order (the set derives collective channel
  /// roles). The first stage is the chain's worker group; all later stages
  /// are helper groups of the split.
  StageHandle stage(std::vector<int> parent_ranks);
  /// Same, with membership given as a pure predicate over parent ranks.
  StageHandle stage(const RolePredicate& member);

  /// A typed stream whose producers are exactly stage `from` and whose
  /// consumers are exactly stage `to` — the link that makes an intermediate
  /// stage consumer of one stream and producer of the next.
  template <typename Record>
  [[nodiscard]] StreamHandle<Record> stream_between(StageHandle from,
                                                    StageHandle to,
                                                    std::size_t max_payload_bytes = 0,
                                                    StreamOptions options = {}) {
    return StreamHandle<Record>(
        add_slot(std::make_unique<TypedStream<Record>>(),
                 sizeof(Record) + max_payload_bytes, std::move(options),
                 link_stages(from, to)));
  }
  /// Payload-only variant of stream_between.
  [[nodiscard]] RawStreamHandle raw_stream_between(StageHandle from,
                                                   StageHandle to,
                                                   std::size_t element_bytes,
                                                   StreamOptions options = {});

  using RoleFn = std::function<void(Context&)>;
  /// Create every declared channel (collective, declaration order), attach
  /// the streams, and dispatch to `worker_fn` or `helper_fn` by role. When
  /// the role function returns, producer streams terminate automatically;
  /// channels are released when the Pipeline leaves scope.
  void run(const RoleFn& worker_fn, const RoleFn& helper_fn);

  /// Chained dispatch: `stage_fns[i]` runs on the members of stage i (one
  /// function per declared stage; ranks in no stage only participate in the
  /// collective channel creation). Auto-termination propagates stage to
  /// stage: when a stage function returns, that stage's outgoing streams
  /// terminate, unblocking the next stage's operate().
  void run_stages(const std::vector<RoleFn>& stage_fns);

 private:
  friend class Context;
  Pipeline(mpi::Rank& self, mpi::Comm parent);

  /// The split and the stages as one immutable table, interned once per
  /// machine when the pipeline runs (defined in decouple.cpp).
  struct Layout;

  /// Stage indices of a stream_between link (-1: not stage-linked).
  struct StageLink {
    int from = -1;
    int to = -1;
  };

  struct Slot {
    std::unique_ptr<StreamBase> stream;
    std::size_t element_bytes = 0;
    StreamOptions options;
    StageLink link;
  };

  int add_slot(std::unique_ptr<StreamBase> stream, std::size_t element_bytes,
               StreamOptions options, StageLink link);
  void set_split(std::vector<int> helpers);
  /// Validate two declared stages as the endpoints of a stream.
  [[nodiscard]] StageLink link_stages(StageHandle from, StageHandle to) const;
  /// Fetch (or build) the machine's shared layout for the declared split
  /// and stages, then drop the declaration copies.
  void intern_layout();
  /// Channel creation + role dispatch + RAII termination for this rank.
  void launch(const RoleFn& role_fn);

  mpi::Rank* self_;
  mpi::Comm parent_;
  // Declarations, held only until run() interns them into layout_.
  std::vector<int> helpers_;              ///< sorted explicit helper ranks
  std::vector<std::vector<int>> stages_;  ///< sorted parent ranks per stage
  std::shared_ptr<const Layout> layout_;
  bool split_configured_ = false;
  bool want_worker_comm_ = false;
  bool ran_ = false;
  std::uint64_t channel_base_ = 0;
  /// with_resilience defaults (interval 0: none declared).
  std::uint32_t resilience_interval_ = 0;
  bool resilience_manual_durability_ = false;
  mpi::Comm worker_comm_{};
  std::vector<Slot> slots_;
};

}  // namespace ds::decouple
