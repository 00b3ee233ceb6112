// Internal operation states for the message-passing runtime.
//
// Every asynchronous operation (send, receive, nonblocking collective) is a
// state object shared between the issuing fiber, the matching engine, and
// scheduled events. Completion both wakes a waiting fiber (for Rank::wait)
// and fires an event-context continuation (for collective state machines) —
// the two mechanisms never conflict.
//
// Hot-path design (the simulate-one-element path must not allocate):
//  * SendOp/RecvOp are intrusively reference-counted and come from per-type
//    freelist pools owned by the Machine. Handles (OpRef / Request), queue
//    links, and scheduled events each hold a reference; when the last drops,
//    the op returns to its pool's freelist with its generation counter
//    bumped — a completed op is reused across the run, never reallocated,
//    and a still-held handle pins its op so it cannot be resurrected into a
//    live request underneath the holder.
//  * Eager-class payloads are stored in a small buffer inside the pooled op
//    (kInlineBytes); larger payloads use an overflow vector whose capacity
//    survives recycling, so even rendezvous-class reuse is allocation-free
//    in steady state.
//  * Matching state is bucketed per context id (communicator / stream), so
//    concurrent streams on one rank never scan each other's traffic. A
//    mailbox remembers its last bucket, so back-to-back traffic on one
//    context skips the hash lookup.
//  * The posted and unexpected queues are intrusive FIFOs threaded through
//    the ops' own link: a queue is two pointers, push and unlink are O(1),
//    and an idle bucket reserves no storage. Probes rarely see more than
//    one queued op, so the cost is the dependent loads, not the scan.
//  * Collective state machines remain individually heap-allocated (pool ==
//    nullptr => delete on last release): they are per-collective, not
//    per-element.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "mpi/types.hpp"
#include "sim/callback.hpp"

namespace ds::mpi {

namespace detail {

class OpPoolBase;

enum class OpKind : std::uint8_t { Send, Recv, Coll };

struct OpState {
  OpKind kind = OpKind::Coll;
  bool complete = false;
  std::uint32_t refs = 0;       ///< handles + queue links + scheduled events
  std::uint32_t gen = 0;        ///< bumped each time a pooled op is recycled
  int waiter_pid = -1;          ///< fiber to wake on completion
  sim::Callback on_complete;    ///< event-context continuation
  Status status{};              ///< filled in for receive-like ops
  OpPoolBase* pool = nullptr;   ///< home pool; null = heap-owned (delete)
  /// Intrusive link: the pool's freelist while recycled (refs == 0), the
  /// one matching queue holding the op while queued (refs >= 1), else null.
  OpState* next = nullptr;

  OpState() = default;
  explicit OpState(OpKind k) noexcept : kind(k) {}
  virtual ~OpState() = default;

  /// Recycle counter of the underlying slot: a live handle observes a
  /// stable generation for as long as it is held.
  [[nodiscard]] std::uint32_t generation() const noexcept { return gen; }

 protected:
  void reset_base() noexcept {
    complete = false;
    waiter_pid = -1;
    on_complete = nullptr;
    status = Status{};
  }
};

class OpPoolBase {
 public:
  virtual void release(OpState* op) noexcept = 0;

 protected:
  ~OpPoolBase() = default;
};

inline void unref_op(OpState* op) noexcept {
  if (op != nullptr && --op->refs == 0) {
    if (op->pool != nullptr)
      op->pool->release(op);
    else
      delete op;
  }
}

/// Intrusive reference to an op state. Copies pin the op (it cannot return
/// to its pool while any reference is live); the last release recycles
/// pooled ops and deletes heap-owned ones.
template <typename T>
class OpRef {
 public:
  OpRef() noexcept = default;
  OpRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  explicit OpRef(T* op) noexcept : op_(op) {
    if (op_ != nullptr) ++op_->refs;
  }
  OpRef(const OpRef& other) noexcept : op_(other.op_) {
    if (op_ != nullptr) ++op_->refs;
  }
  OpRef(OpRef&& other) noexcept : op_(other.op_) { other.op_ = nullptr; }
  template <typename U,
            std::enable_if_t<std::is_convertible_v<U*, T*>, int> = 0>
  OpRef(const OpRef<U>& other) noexcept  // NOLINT(google-explicit-constructor)
      : op_(other.get()) {
    if (op_ != nullptr) ++op_->refs;
  }
  template <typename U,
            std::enable_if_t<std::is_convertible_v<U*, T*>, int> = 0>
  OpRef(OpRef<U>&& other) noexcept  // NOLINT(google-explicit-constructor)
      : op_(other.detach()) {}

  OpRef& operator=(const OpRef& other) noexcept {
    OpRef(other).swap(*this);
    return *this;
  }
  OpRef& operator=(OpRef&& other) noexcept {
    OpRef(std::move(other)).swap(*this);
    return *this;
  }
  OpRef& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  ~OpRef() { unref_op(op_); }

  void reset() noexcept {
    unref_op(op_);
    op_ = nullptr;
  }
  void swap(OpRef& other) noexcept { std::swap(op_, other.op_); }

  [[nodiscard]] T* get() const noexcept { return op_; }
  [[nodiscard]] T* operator->() const noexcept { return op_; }
  [[nodiscard]] T& operator*() const noexcept { return *op_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return op_ != nullptr;
  }

  /// Hand the raw pointer (and its reference) to the caller.
  [[nodiscard]] T* detach() noexcept {
    T* op = op_;
    op_ = nullptr;
    return op;
  }

  /// Take over a reference already counted in `op->refs` (the inverse of
  /// detach).
  [[nodiscard]] static OpRef adopt(T* op) noexcept {
    OpRef ref;
    ref.op_ = op;
    return ref;
  }

 private:
  template <typename U>
  friend class OpRef;

  T* op_ = nullptr;
};

/// Heap-owned op (collective state machines): reference-counted, deleted on
/// the last release.
template <typename T, typename... Args>
[[nodiscard]] OpRef<T> make_heap_op(Args&&... args) {
  return OpRef<T>(new T(std::forward<Args>(args)...));
}

enum class SendMode { Eager, Rendezvous };

struct SendOp final : OpState {
  /// Inline payload budget: eager-class elements (records, headers, small
  /// blocks) are copied into the pooled op itself; anything larger spills
  /// into `overflow_`, whose capacity survives recycling, so the heap is
  /// touched at most once per pool slot even for rendezvous-class payloads.
  static constexpr std::size_t kInlineBytes = 1024;

  SendOp() noexcept : OpState(OpKind::Send) {}

  std::uint64_t context = 0;
  int src_comm_rank = 0;  ///< sender's rank in the communicator
  int src_world = 0;
  int dst_world = 0;
  int tag = 0;
  std::size_t bytes = 0;  ///< wire size
  SendMode mode = SendMode::Eager;
  std::size_t payload_bytes = 0;  ///< 0 for synthetic messages

  void store_payload(const void* data, std::size_t n) {
    payload_bytes = n;
    if (n == 0) return;
    if (n <= kInlineBytes) {
      std::memcpy(inline_payload_.data(), data, n);
    } else {
      if (n > overflow_.capacity()) {
        // Round the reservation up to its power-of-two size class: recycled
        // slots then converge after one growth per class instead of creeping
        // as self-tuned frame budgets drift upward — late creep reads as a
        // steady-state allocation under the zero-alloc gate's delta method.
        std::size_t cap = 2 * kInlineBytes;
        while (cap < n) cap *= 2;
        overflow_.reserve(cap);
      }
      overflow_.resize(n);
      std::memcpy(overflow_.data(), data, n);
    }
  }

  [[nodiscard]] bool has_payload() const noexcept { return payload_bytes > 0; }
  [[nodiscard]] const std::byte* payload() const noexcept {
    if (payload_bytes == 0) return nullptr;
    return payload_bytes <= kInlineBytes ? inline_payload_.data()
                                         : overflow_.data();
  }

  void reset_for_reuse() noexcept {
    reset_base();
    payload_bytes = 0;
    overflow_.clear();  // keeps capacity
  }

 private:
  std::array<std::byte, kInlineBytes> inline_payload_;
  std::vector<std::byte> overflow_;
};

struct RecvOp final : OpState {
  RecvOp() noexcept : OpState(OpKind::Recv) {}

  std::uint64_t context = 0;
  int dst_world = 0;
  int src_filter = kAnySource;  ///< comm rank or kAnySource
  int tag_filter = kAnyTag;
  /// World rank of the one sender that can match this receive, or
  /// kAnySource when unknown. Failure-aware paths (collectives, p2p,
  /// aggregated IO) set it so a crash of that sender completes the receive
  /// with Status::failed (satisfied-by-failure) instead of leaving it
  /// posted forever; wildcard/stream receives leave it unset and keep the
  /// pre-existing semantics.
  int src_world = kAnySource;
  void* out = nullptr;
  std::size_t capacity = 0;
  bool overhead_charged = false;  ///< o_r charged at observation, once
  /// Fused wake/advance (streams): when completion finds a blocked waiter,
  /// wake it at completion + o_r with the overhead pre-charged — one
  /// scheduled resume instead of a wake plus a separate o_r advance (which
  /// costs its own event and context-switch pair per message).
  bool fused_wake = false;

  void reset_for_reuse() noexcept {
    reset_base();
    src_filter = kAnySource;
    tag_filter = kAnyTag;
    src_world = kAnySource;
    out = nullptr;
    capacity = 0;
    overhead_charged = false;
    fused_wake = false;
  }
};

struct OpPoolStats {
  std::uint64_t created = 0;   ///< op states ever allocated
  std::uint64_t acquired = 0;  ///< acquisitions (created + recycled)
  std::uint64_t released = 0;  ///< slots returned to the freelist
  [[nodiscard]] std::uint64_t reused() const noexcept {
    return acquired - created;
  }
  /// Slots currently held by live handles/queues/events. Fault-injection
  /// tests assert this returns to 0 after a crash-and-drain run: killing a
  /// rank must recycle every op it pinned, never leak pool slots.
  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    return acquired - released;
  }
};

/// Freelist pool of op states. Slots are allocated once, handed out as
/// OpRefs, and return to the freelist (generation bumped) when the last
/// reference drops; steady-state traffic runs entirely on recycled slots.
template <typename T>
class OpPool final : public OpPoolBase {
 public:
  [[nodiscard]] OpRef<T> acquire() {
    ++stats_.acquired;
    if (free_head_ != nullptr) {
      T* op = static_cast<T*>(free_head_);
      free_head_ = op->next;
      op->next = nullptr;
      return OpRef<T>(op);
    }
    ++stats_.created;
    slots_.push_back(std::make_unique<T>());
    T* op = slots_.back().get();
    op->pool = this;
    return OpRef<T>(op);
  }

  void release(OpState* op) noexcept override {
    ++stats_.released;
    ++op->gen;
    // Resetting may drop continuations that hold references to other ops,
    // recursively releasing them; each inner release completes before the
    // outer freelist push, so the list stays consistent.
    static_cast<T*>(op)->reset_for_reuse();
    op->next = free_head_;
    free_head_ = op;
  }

  [[nodiscard]] const OpPoolStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }

 private:
  std::vector<std::unique_ptr<T>> slots_;
  OpState* free_head_ = nullptr;
  OpPoolStats stats_;
};

/// FIFO of pooled ops threaded through OpState::next: push at the tail,
/// scans start at the oldest op, and a match found mid-scan unlinks in O(1)
/// through the predecessor the scan already holds. The queue holds one
/// reference per linked op. No storage of its own, so an idle bucket costs
/// two pointers and a queue never allocates.
template <typename T>
class OpQueue {
 public:
  OpQueue() noexcept = default;
  OpQueue(const OpQueue&) = delete;
  OpQueue& operator=(const OpQueue&) = delete;
  ~OpQueue() {
    T* op = head_;
    head_ = tail_ = nullptr;
    while (op != nullptr) {
      T* const after = next_of(op);
      op->next = nullptr;
      unref_op(op);
      op = after;
    }
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

  void push_back(const OpRef<T>& op) {
    T* const p = OpRef<T>(op).detach();  // the queue's reference
    p->next = nullptr;
    if (tail_ != nullptr)
      tail_->next = p;
    else
      head_ = p;
    tail_ = p;
  }

  /// Oldest op satisfying `pred`, or null; the queue is unchanged.
  template <typename Pred>
  [[nodiscard]] const T* find_first(Pred pred) const {
    for (const T* op = head_; op != nullptr; op = next_of(op))
      if (pred(*op)) return op;
    return nullptr;
  }

  /// Unlink and return the oldest op satisfying `pred`, or null.
  template <typename Pred>
  [[nodiscard]] OpRef<T> take_first(Pred pred) {
    for (T *prev = nullptr, *op = head_; op != nullptr;
         prev = op, op = next_of(op)) {
      if (pred(*op)) return unlink(prev, op);
    }
    return nullptr;
  }

 private:
  [[nodiscard]] static T* next_of(const T* op) noexcept {
    return static_cast<T*>(op->next);
  }

  [[nodiscard]] OpRef<T> unlink(T* prev, T* op) noexcept {
    T* const after = next_of(op);
    if (prev != nullptr)
      prev->next = after;
    else
      head_ = after;
    if (tail_ == op) tail_ = prev;
    op->next = nullptr;
    return OpRef<T>::adopt(op);
  }

  T* head_ = nullptr;
  T* tail_ = nullptr;
};

/// Matching filters against an arrived message (context equality is the
/// bucket key and is asserted by the full `matches` overload).
[[nodiscard]] inline bool matches_filters(int src_filter, int tag_filter,
                                          const SendOp& s) noexcept {
  return (src_filter == kAnySource || src_filter == s.src_comm_rank) &&
         (tag_filter == kAnyTag || tag_filter == s.tag);
}

[[nodiscard]] inline bool matches(const RecvOp& r, const SendOp& s) noexcept {
  return r.context == s.context && matches_filters(r.src_filter, r.tag_filter, s);
}

/// Unexpected arrivals and posted receives of one matching context, both in
/// arrival/post order, per MPI matching semantics. A single FIFO per context
/// preserves per-(context, source) arrival order, and wildcard receives see
/// the earliest arrival of the context first. Both queues are intrusive, so
/// a bucket is five words whatever traffic it has seen; in practice a queue
/// holds zero or one op when a match probes it.
struct ContextQueues {
  OpQueue<SendOp> unexpected;
  OpQueue<RecvOp> posted;
  bool touched = true;  ///< traffic since the last sweep

  [[nodiscard]] bool drained() const noexcept {
    return unexpected.empty() && posted.empty();
  }
};

/// Per-world-rank matching state, bucketed by context id: many concurrent
/// streams (each with its own derived context) on one rank match in O(1)
/// amortized instead of scanning a shared flat queue.
///
/// Buckets are created on first use and reclaimed lazily: every
/// kSweepInterval accesses, buckets that sat drained AND untouched for the
/// whole interval are erased. Hot buckets (which pass through empty between
/// messages constantly) carry the touched mark and are never churned, so
/// the steady state stays allocation-free while dead contexts (short-lived
/// communicators/streams) cannot accumulate without bound.
///
/// Most mailboxes see one context at a time, so `touch` first checks a
/// one-entry slot holding the last bucket it returned. Map nodes never move
/// (rehashing relinks them), so the slot stays valid until sweep() erases
/// that very node, which clears it.
struct Mailbox {
  static constexpr std::uint32_t kSweepInterval = 1024;

  std::unordered_map<std::uint64_t, ContextQueues> contexts;
  std::vector<int> probe_waiters;  ///< pids to wake on any new arrival
  std::uint32_t ops_since_sweep = 0;
  std::uint64_t hot_context = 0;
  ContextQueues* hot = nullptr;  ///< bucket of hot_context; null = none

  /// Bucket for `context`, marked live for this sweep interval.
  [[nodiscard]] ContextQueues& touch(std::uint64_t context) {
    if (hot == nullptr || hot_context != context) {
      hot = &contexts[context];
      hot_context = context;
    }
    ContextQueues& q = *hot;
    q.touched = true;
    if (++ops_since_sweep >= kSweepInterval) sweep();
    return q;  // sweep() never erases a bucket marked touched
  }

  void sweep() {
    ops_since_sweep = 0;
    for (auto it = contexts.begin(); it != contexts.end();) {
      if (!it->second.touched && it->second.drained()) {
        if (&it->second == hot) hot = nullptr;
        it = contexts.erase(it);
      } else {
        it->second.touched = false;
        ++it;
      }
    }
  }
};

}  // namespace detail

/// Public handle to any asynchronous operation. Holding a Request pins the
/// op: pooled op states recycle only after every handle, queue link, and
/// scheduled event has released its reference.
using Request = detail::OpRef<detail::OpState>;

}  // namespace ds::mpi
