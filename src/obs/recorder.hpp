// Span/instant recorder: the trace half of ds::obs.
//
// The recorder collects, per rank, a chronological log of span begin/end
// events (nesting preserved by stack discipline) and instant events (the
// resilience path's crash/failover/handoff/rejoin/agreement markers). It
// subsumes the old sim::TraceRecorder: the same begin/end call shape, plus
// a SpanKind taxonomy, instants, and exporters — Chrome trace-event JSON
// for Perfetto/chrome://tracing, CSV, and the ASCII timeline with a
// deterministic glyph legend.
//
// Timestamps are engine virtual time, which is nondecreasing, so the raw
// event log is monotone per track by construction; the Chrome exporter
// emits it verbatim and the B/E pairs balance because end() ignores (and
// counts) mismatched ends and close_all()/the exporter close anything still
// open. tools/check_trace.py validates exactly this contract in CI.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/time.hpp"

namespace ds::obs {

/// A completed [begin, end) interval on one rank's track. `depth` is the
/// nesting level at which the span was opened (0 = top level).
struct Span {
  int rank = 0;
  util::SimTime begin = 0;
  util::SimTime end = 0;
  std::string label;
  SpanKind kind = SpanKind::Other;
  int depth = 0;
};

/// A zero-duration marker on one rank's track (crash, failover, ...).
struct Instant {
  int rank = 0;
  util::SimTime at = 0;
  std::string name;
};

class Recorder {
 public:
  /// Open a labeled span on `rank` at time `t`. Spans may nest; the
  /// innermost open span is the one closed by end(). Labels are typically
  /// string literals; they are copied.
  void begin(int rank, util::SimTime t, std::string label,
             SpanKind kind = SpanKind::Other);
  /// Hot-path overload: a `label` with static storage duration (string
  /// literal) interns by pointer identity first, so the per-span cost is a
  /// pointer compare plus one event append — no string construction.
  void begin(int rank, util::SimTime t, const char* label,
             SpanKind kind = SpanKind::Other) {
    if (rank < 0) return;
    const PtrId& hit = ptr_cache_[ptr_slot(label)];
    push_begin(rank, t, hit.ptr == label ? hit.id : intern(label), kind);
  }
  /// Close the innermost open span on `rank` at time `t`. A mismatched end
  /// (nothing open) is ignored and counted in dropped_ends().
  void end(int rank, util::SimTime t);
  /// Record an instant event on `rank`'s track at time `t`.
  void instant(int rank, util::SimTime t, std::string name);
  void instant(int rank, util::SimTime t, const char* name);
  /// Close every span still open on `rank` at time `t` (crash unwinding:
  /// a fail-stopped fiber never reaches its end() calls).
  void close_all(int rank, util::SimTime t);

  /// Completed spans in end order. Materialized lazily from the raw event
  /// log (recording only appends events, keeping the hot path cheap).
  [[nodiscard]] const std::vector<Span>& intervals() const {
    return materialized();
  }
  [[nodiscard]] const std::vector<Instant>& instants() const noexcept {
    return instants_;
  }
  /// end() calls that found no open span (mismatch diagnostics).
  [[nodiscard]] std::uint64_t dropped_ends() const noexcept { return dropped_ends_; }
  /// Spans currently open on `rank` (nesting depth).
  [[nodiscard]] std::size_t open_depth(int rank) const noexcept;

  /// Total recorded time on `rank` across spans whose label matches.
  [[nodiscard]] util::SimTime total(int rank, const std::string& label) const;
  /// Total recorded time on `rank` across spans of `kind`.
  [[nodiscard]] util::SimTime total(int rank, SpanKind kind) const;

  [[nodiscard]] std::string to_csv() const;

  /// One text row per rank; each column is a time bucket filled with the
  /// glyph of the dominant label ('.' = idle). `width` buckets span
  /// [0, makespan]. Glyphs are assigned deterministically in first-recorded
  /// order — the label's first free character, then the next free letter —
  /// and a legend line maps every glyph back to its label, so two labels
  /// sharing a first letter never render identically.
  [[nodiscard]] std::string to_ascii(int width = 96) const;

  /// Chrome trace-event JSON (loads in Perfetto and chrome://tracing).
  /// One track per rank (pid 0, tid = rank, named "rank N"), duration
  /// events ("B"/"E") for spans with nesting preserved, instant events
  /// ("i", thread scope) for the resilience markers. `ts` is microseconds
  /// of virtual time (the trace-event unit); spans still open at the end
  /// of the log are closed at the latest recorded time.
  [[nodiscard]] std::string to_chrome_json() const;

  void clear();

 private:
  /// Raw chronological event log (engine time is nondecreasing, so this is
  /// monotone per rank): the Chrome exporter replays it verbatim.
  struct RawEvent {
    enum class Type : std::uint8_t { Begin, End, Instant };
    Type type;
    SpanKind kind;
    int rank;
    util::SimTime t;
    std::uint32_t name;  ///< index into names_ (Begin/Instant; unused on End)
  };
  struct Open {
    util::SimTime begin;
    std::uint32_t name;
    SpanKind kind;
  };

  struct PtrId {
    const char* ptr = nullptr;
    std::uint32_t id = 0;
  };
  static constexpr int kPtrCacheBits = 5;
  /// Fibonacci hash of a label's address onto a ptr_cache_ slot.
  [[nodiscard]] static std::size_t ptr_slot(const char* p) noexcept {
    return static_cast<std::size_t>(
        (reinterpret_cast<std::uintptr_t>(p) * 0x9E3779B97F4A7C15ull) >>
        (64 - kPtrCacheBits));
  }

  /// Append-only event log in 64 KiB chunks: an append is a bounds check
  /// and a store, and growth never copies the log into a fresh doubled
  /// buffer, whose pages the kernel would fault in again.
  class EventLog {
   public:
    void push(const RawEvent& e) {
      if (tail_ == end_) grow();
      *tail_++ = e;
    }
    template <typename F>
    void for_each(F&& f) const {
      for (std::size_t c = 0; c < chunks_.size(); ++c) {
        const RawEvent* first = chunks_[c].get();
        const RawEvent* last = c + 1 == chunks_.size() ? tail_ : first + kChunk;
        for (const RawEvent* e = first; e != last; ++e) f(*e);
      }
    }
    void clear() noexcept {
      chunks_.clear();
      tail_ = end_ = nullptr;
    }

   private:
    static constexpr std::size_t kChunk = (64 * 1024) / sizeof(RawEvent);
    void grow();
    std::vector<std::unique_ptr<RawEvent[]>> chunks_;
    RawEvent* tail_ = nullptr;
    RawEvent* end_ = nullptr;
  };

  std::uint32_t intern(std::string name);
  std::uint32_t intern(const char* name);
  void push_begin(int rank, util::SimTime t, std::uint32_t name, SpanKind kind);
  /// Rebuild spans_cache_ from events_ if recording dirtied it.
  const std::vector<Span>& materialized() const;

  std::vector<std::string> names_;  ///< interned labels (events reference them)
  /// Pointer-identity fast path for literal labels: one entry per distinct
  /// call-site string, scanned linearly (a handful of entries), behind a
  /// direct-mapped cache of the last id each slot resolved. The cache keeps
  /// the per-span lookup to one predictable compare; the scan alone cost
  /// about a third of a span's recording time.
  std::vector<std::pair<const char*, std::uint32_t>> ptr_ids_;
  std::array<PtrId, std::size_t{1} << kPtrCacheBits> ptr_cache_{};
  EventLog events_;
  std::vector<Instant> instants_;
  std::vector<std::vector<Open>> open_;  ///< per-rank open stacks
  std::uint64_t dropped_ends_ = 0;
  mutable std::vector<Span> spans_cache_;  ///< completed, in end order
  mutable bool spans_dirty_ = false;
};

}  // namespace ds::obs
