#include "obs/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace ds::obs {

const char* span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::Compute: return "compute";
    case SpanKind::SendBlocked: return "send_blocked";
    case SpanKind::RecvBlocked: return "recv_blocked";
    case SpanKind::Collective: return "collective";
    case SpanKind::Agreement: return "agreement";
    case SpanKind::StreamOperate: return "stream_operate";
    case SpanKind::StreamReplay: return "stream_replay";
    case SpanKind::Other: break;
  }
  return "other";
}

std::uint32_t Recorder::intern(std::string name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.push_back(std::move(name));
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Recorder::intern(const char* name) {
  auto known =
      std::find_if(ptr_ids_.begin(), ptr_ids_.end(),
                   [name](const auto& entry) { return entry.first == name; });
  if (known == ptr_ids_.end())
    known = ptr_ids_.emplace(known, name, intern(std::string(name)));
  ptr_cache_[ptr_slot(name)] = PtrId{name, known->second};
  return known->second;
}

void Recorder::EventLog::grow() {
  chunks_.push_back(std::make_unique_for_overwrite<RawEvent[]>(kChunk));
  tail_ = chunks_.back().get();
  end_ = tail_ + kChunk;
}

void Recorder::push_begin(int rank, util::SimTime t, std::uint32_t name,
                          SpanKind kind) {
  if (static_cast<std::size_t>(rank) >= open_.size()) open_.resize(rank + 1);
  events_.push(RawEvent{RawEvent::Type::Begin, kind, rank, t, name});
  open_[static_cast<std::size_t>(rank)].push_back(Open{t, name, kind});
}

void Recorder::begin(int rank, util::SimTime t, std::string label,
                     SpanKind kind) {
  if (rank < 0) return;
  push_begin(rank, t, intern(std::move(label)), kind);
}

void Recorder::end(int rank, util::SimTime t) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= open_.size() ||
      open_[static_cast<std::size_t>(rank)].empty()) {
    ++dropped_ends_;  // mismatched end: ignored, but visible to diagnostics
    return;
  }
  auto& stack = open_[static_cast<std::size_t>(rank)];
  const Open o = stack.back();
  stack.pop_back();
  events_.push(RawEvent{RawEvent::Type::End, o.kind, rank, t, o.name});
  spans_dirty_ = true;
}

void Recorder::instant(int rank, util::SimTime t, std::string name) {
  if (rank < 0) return;
  const std::uint32_t n = intern(std::move(name));
  events_.push(
      RawEvent{RawEvent::Type::Instant, SpanKind::Other, rank, t, n});
  instants_.push_back(Instant{rank, t, names_[n]});
}

void Recorder::instant(int rank, util::SimTime t, const char* name) {
  if (rank < 0) return;
  const std::uint32_t n = intern(name);
  events_.push(
      RawEvent{RawEvent::Type::Instant, SpanKind::Other, rank, t, n});
  instants_.push_back(Instant{rank, t, names_[n]});
}

const std::vector<Span>& Recorder::materialized() const {
  if (!spans_dirty_) return spans_cache_;
  spans_cache_.clear();
  std::vector<std::vector<Open>> stacks;
  events_.for_each([&](const RawEvent& e) {
    switch (e.type) {
      case RawEvent::Type::Begin:
        if (static_cast<std::size_t>(e.rank) >= stacks.size())
          stacks.resize(e.rank + 1);
        stacks[static_cast<std::size_t>(e.rank)].push_back(
            Open{e.t, e.name, e.kind});
        break;
      case RawEvent::Type::End: {
        // Mismatched ends never reach the log, so the stack is non-empty.
        auto& stack = stacks[static_cast<std::size_t>(e.rank)];
        const Open o = stack.back();
        stack.pop_back();
        spans_cache_.push_back(Span{e.rank, o.begin, e.t, names_[o.name],
                                    o.kind, static_cast<int>(stack.size())});
        break;
      }
      case RawEvent::Type::Instant:
        break;
    }
  });
  spans_dirty_ = false;
  return spans_cache_;
}

void Recorder::close_all(int rank, util::SimTime t) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= open_.size()) return;
  while (!open_[static_cast<std::size_t>(rank)].empty()) end(rank, t);
}

std::size_t Recorder::open_depth(int rank) const noexcept {
  if (rank < 0 || static_cast<std::size_t>(rank) >= open_.size()) return 0;
  return open_[static_cast<std::size_t>(rank)].size();
}

util::SimTime Recorder::total(int rank, const std::string& label) const {
  util::SimTime sum = 0;
  for (const auto& s : materialized())
    if (s.rank == rank && s.label == label) sum += s.end - s.begin;
  return sum;
}

util::SimTime Recorder::total(int rank, SpanKind kind) const {
  util::SimTime sum = 0;
  for (const auto& s : materialized())
    if (s.rank == rank && s.kind == kind) sum += s.end - s.begin;
  return sum;
}

std::string Recorder::to_csv() const {
  std::ostringstream out;
  out << "rank,begin_ns,end_ns,label,kind,depth\n";
  for (const auto& s : materialized())
    out << s.rank << ',' << s.begin << ',' << s.end << ',' << s.label << ','
        << span_kind_name(s.kind) << ',' << s.depth << '\n';
  return out.str();
}

std::string Recorder::to_ascii(int width) const {
  const std::vector<Span>& spans = materialized();
  if (spans.empty() || width <= 0) return {};
  int max_rank = 0;
  util::SimTime makespan = 1;
  for (const auto& s : spans) {
    max_rank = std::max(max_rank, s.rank);
    makespan = std::max(makespan, s.end);
  }
  for (const auto& i : instants_) {
    max_rank = std::max(max_rank, i.rank);
    makespan = std::max(makespan, i.at);
  }

  // Deterministic glyph assignment, in label-interning (= first-recorded)
  // order: a label gets its first character that no earlier label took,
  // then falls back to the first free character of a fixed alphabet — so
  // "comp" and "coll" render distinctly and reproducibly.
  static constexpr char kFallback[] =
      "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ*#@+&%";
  std::vector<char> glyph(names_.size(), '?');
  std::vector<std::uint8_t> labeled(names_.size(), 0);
  for (const auto& s : spans) {
    for (std::size_t n = 0; n < names_.size(); ++n)
      if (names_[n] == s.label) labeled[n] = 1;
  }
  std::string taken = ".|!";  // reserved: idle, border, instant marker
  for (std::size_t n = 0; n < names_.size(); ++n) {
    if (!labeled[n]) continue;
    char g = 0;
    for (const char c : names_[n]) {
      if (taken.find(c) == std::string::npos) {
        g = c;
        break;
      }
    }
    if (g == 0) {
      for (const char c : kFallback) {
        if (c != 0 && taken.find(c) == std::string::npos) {
          g = c;
          break;
        }
      }
    }
    if (g == 0) g = '?';
    glyph[n] = g;
    taken.push_back(g);
  }
  const auto glyph_of = [&](const std::string& label) {
    for (std::size_t n = 0; n < names_.size(); ++n)
      if (names_[n] == label) return glyph[n];
    return '?';
  };

  std::vector<std::string> rows(static_cast<std::size_t>(max_rank) + 1,
                                std::string(static_cast<std::size_t>(width), '.'));
  // Paint longest-first so fine-grained nested spans stay visible on top of
  // their enclosing outer spans.
  std::vector<const Span*> sorted;
  sorted.reserve(spans.size());
  for (const auto& s : spans) sorted.push_back(&s);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Span* a, const Span* b) {
                     return (a->end - a->begin) > (b->end - b->begin);
                   });
  const auto bucket = [&](util::SimTime t) {
    const auto b = static_cast<long>(static_cast<double>(t) /
                                     static_cast<double>(makespan) * width);
    return std::clamp<long>(b, 0, width - 1);
  };
  for (const Span* s : sorted) {
    const char mark = glyph_of(s->label);
    const long from = bucket(s->begin);
    const long to = std::max(from, bucket(s->end - 1));
    for (long c = from; c <= to; ++c)
      rows[static_cast<std::size_t>(s->rank)][static_cast<std::size_t>(c)] = mark;
  }
  // Instant markers paint last so a crash/failover stays visible.
  for (const auto& i : instants_)
    rows[static_cast<std::size_t>(i.rank)][static_cast<std::size_t>(bucket(i.at))] =
        '!';

  std::ostringstream out;
  for (int r = 0; r <= max_rank; ++r)
    out << 'P' << r << (r < 10 ? "  |" : " |")
        << rows[static_cast<std::size_t>(r)] << "|\n";
  out << "legend:";
  for (std::size_t n = 0; n < names_.size(); ++n)
    if (labeled[n]) out << ' ' << glyph[n] << '=' << names_[n];
  if (!instants_.empty()) out << " !=instant";
  out << '\n';
  return out.str();
}

namespace {
void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
}
void append_ts(std::string& out, util::SimTime ns) {
  // Microseconds with nanosecond resolution, formatted without a float
  // round-trip so virtual times survive exactly.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}
}  // namespace

std::string Recorder::to_chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Track naming metadata: one track per rank, pid 0 = the machine.
  int max_rank = -1;
  events_.for_each(
      [&](const RawEvent& e) { max_rank = std::max(max_rank, e.rank); });
  for (int r = 0; r <= max_rank; ++r) {
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
           std::to_string(r) + ",\"args\":{\"name\":\"rank " +
           std::to_string(r) + "\"}}";
  }

  util::SimTime last_t = 0;
  const auto emit = [&](const RawEvent& e) {
    last_t = std::max(last_t, e.t);
    comma();
    switch (e.type) {
      case RawEvent::Type::Begin:
        out += "{\"name\":\"";
        append_escaped(out, names_[e.name]);
        out += "\",\"cat\":\"";
        out += span_kind_name(e.kind);
        out += "\",\"ph\":\"B\",\"ts\":";
        break;
      case RawEvent::Type::End:
        out += "{\"ph\":\"E\",\"ts\":";
        break;
      case RawEvent::Type::Instant:
        out += "{\"name\":\"";
        append_escaped(out, names_[e.name]);
        out += "\",\"cat\":\"resilience\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
        break;
    }
    append_ts(out, e.t);
    out += ",\"pid\":0,\"tid\":" + std::to_string(e.rank) + "}";
  };
  // The raw log is chronological (engine time is nondecreasing), so per-
  // track timestamps are monotone and B/E pairs balance by construction.
  events_.for_each(emit);
  // Close anything still open at the latest recorded time, innermost first,
  // so the exported trace always balances even when a program left spans
  // open (e.g. a trace cut mid-run).
  for (std::size_t r = 0; r < open_.size(); ++r) {
    for (auto it = open_[r].rbegin(); it != open_[r].rend(); ++it) {
      emit(RawEvent{RawEvent::Type::End, it->kind, static_cast<int>(r),
                    std::max(last_t, it->begin), it->name});
    }
  }
  out += "]}\n";
  return out;
}

void Recorder::clear() {
  names_.clear();
  ptr_ids_.clear();
  ptr_cache_.fill(PtrId{});
  events_.clear();
  instants_.clear();
  open_.clear();
  dropped_ends_ = 0;
  spans_cache_.clear();
  spans_dirty_ = false;
}

}  // namespace ds::obs
