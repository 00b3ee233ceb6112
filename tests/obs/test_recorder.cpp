#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace ds::obs {
namespace {

TEST(Recorder, RecordsCompletedSpans) {
  Recorder r;
  r.begin(0, 10, "comp", SpanKind::Compute);
  r.end(0, 30);
  ASSERT_EQ(r.intervals().size(), 1u);
  const Span& s = r.intervals()[0];
  EXPECT_EQ(s.rank, 0);
  EXPECT_EQ(s.begin, 10);
  EXPECT_EQ(s.end, 30);
  EXPECT_EQ(s.label, "comp");
  EXPECT_EQ(s.kind, SpanKind::Compute);
  EXPECT_EQ(s.depth, 0);
}

TEST(Recorder, NestingPreservedWithDepths) {
  Recorder r;
  r.begin(2, 0, "outer", SpanKind::Collective);
  r.begin(2, 5, "inner", SpanKind::RecvBlocked);
  EXPECT_EQ(r.open_depth(2), 2u);
  r.end(2, 8);   // closes inner
  r.end(2, 20);  // closes outer
  EXPECT_EQ(r.open_depth(2), 0u);
  ASSERT_EQ(r.intervals().size(), 2u);
  // Completed in end order: inner first.
  EXPECT_EQ(r.intervals()[0].label, "inner");
  EXPECT_EQ(r.intervals()[0].depth, 1);
  EXPECT_EQ(r.intervals()[1].label, "outer");
  EXPECT_EQ(r.intervals()[1].depth, 0);
}

TEST(Recorder, MismatchedEndIsIgnoredAndCounted) {
  Recorder r;
  r.end(0, 5);  // nothing open
  EXPECT_EQ(r.dropped_ends(), 1u);
  EXPECT_TRUE(r.intervals().empty());
  r.begin(0, 10, "a");
  r.end(0, 12);
  r.end(0, 13);  // mismatched again
  EXPECT_EQ(r.dropped_ends(), 2u);
  EXPECT_EQ(r.intervals().size(), 1u);
}

TEST(Recorder, RanksTrackIndependentStacks) {
  Recorder r;
  r.begin(0, 0, "a");
  r.begin(1, 0, "b");
  r.end(1, 4);
  EXPECT_EQ(r.open_depth(0), 1u);
  EXPECT_EQ(r.open_depth(1), 0u);
  ASSERT_EQ(r.intervals().size(), 1u);
  EXPECT_EQ(r.intervals()[0].rank, 1);
}

TEST(Recorder, CloseAllUnwindsCrashedRank) {
  Recorder r;
  r.begin(3, 0, "outer");
  r.begin(3, 2, "inner");
  r.close_all(3, 7);
  EXPECT_EQ(r.open_depth(3), 0u);
  ASSERT_EQ(r.intervals().size(), 2u);
  for (const Span& s : r.intervals()) EXPECT_EQ(s.end, 7);
  // A later end on the same rank is a mismatch, not a crash artifact.
  r.end(3, 9);
  EXPECT_EQ(r.dropped_ends(), 1u);
}

TEST(Recorder, TotalsByLabelAndKind) {
  Recorder r;
  r.begin(0, 0, "comp", SpanKind::Compute);
  r.end(0, 10);
  r.begin(0, 10, "comp", SpanKind::Compute);
  r.end(0, 15);
  r.begin(0, 15, "recv-wait", SpanKind::RecvBlocked);
  r.end(0, 18);
  EXPECT_EQ(r.total(0, "comp"), 15);
  EXPECT_EQ(r.total(0, std::string("recv-wait")), 3);
  EXPECT_EQ(r.total(0, SpanKind::Compute), 15);
  EXPECT_EQ(r.total(0, SpanKind::RecvBlocked), 3);
  EXPECT_EQ(r.total(1, SpanKind::Compute), 0);
}

TEST(Recorder, AsciiDistinctGlyphsForSharedFirstLetter) {
  Recorder r;
  // Three labels sharing the first letter: the old renderer painted all of
  // them as 'c'; now each gets a unique glyph and the legend says which.
  r.begin(0, 0, "comp");
  r.end(0, 40);
  r.begin(0, 40, "collective");
  r.end(0, 80);
  r.begin(0, 80, "credit-wait");
  r.end(0, 100);
  const std::string ascii = r.to_ascii(50);
  // Legend line present and maps three distinct glyphs.
  const auto legend_at = ascii.find("legend:");
  ASSERT_NE(legend_at, std::string::npos);
  const std::string legend = ascii.substr(legend_at);
  EXPECT_NE(legend.find("=comp"), std::string::npos);
  EXPECT_NE(legend.find("=collective"), std::string::npos);
  EXPECT_NE(legend.find("=credit-wait"), std::string::npos);
  // The three glyphs differ: extract them from "X=label" entries.
  const auto glyph_of = [&](const std::string& label) {
    const auto at = legend.find("=" + label);
    EXPECT_NE(at, std::string::npos);
    return legend[at - 1];
  };
  const char g1 = glyph_of("comp");
  const char g2 = glyph_of("collective");
  const char g3 = glyph_of("credit-wait");
  EXPECT_NE(g1, g2);
  EXPECT_NE(g1, g3);
  EXPECT_NE(g2, g3);
  // First label keeps its natural first letter.
  EXPECT_EQ(g1, 'c');
}

TEST(Recorder, AsciiInstantsRenderAsBang) {
  Recorder r;
  r.begin(0, 0, "comp");
  r.end(0, 100);
  r.instant(0, 50, "crash");
  const std::string ascii = r.to_ascii(20);
  EXPECT_NE(ascii.find('!'), std::string::npos);
  EXPECT_NE(ascii.find("!=instant"), std::string::npos);
}

TEST(Recorder, ChromeJsonShape) {
  Recorder r;
  r.begin(0, 1000, "comp", SpanKind::Compute);
  r.end(0, 3000);
  r.instant(1, 2000, "crash");
  const std::string json = r.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Track metadata names each rank.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("rank 0"), std::string::npos);
  EXPECT_NE(json.find("rank 1"), std::string::npos);
  // B/E pair for the span, i for the instant, ns -> us timestamps.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"comp\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"crash\""), std::string::npos);
  EXPECT_NE(json.find("1.000"), std::string::npos);  // 1000 ns = 1 us
}

TEST(Recorder, ChromeJsonClosesOpenSpansAtLastTime) {
  Recorder r;
  r.begin(0, 0, "outer");
  r.begin(0, 5, "inner");
  r.end(0, 9);
  // "outer" left open on purpose; the exporter must still balance B/E.
  const std::string json = r.to_chrome_json();
  std::size_t b = 0, e = 0;
  for (std::size_t at = json.find("\"ph\":\"B\""); at != std::string::npos;
       at = json.find("\"ph\":\"B\"", at + 1))
    ++b;
  for (std::size_t at = json.find("\"ph\":\"E\""); at != std::string::npos;
       at = json.find("\"ph\":\"E\"", at + 1))
    ++e;
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(b, e);
}

TEST(Recorder, CsvHasHeaderAndRows) {
  Recorder r;
  r.begin(0, 10, "comp", SpanKind::Compute);
  r.end(0, 30);
  const std::string csv = r.to_csv();
  EXPECT_EQ(csv.rfind("rank,begin_ns,end_ns,label,kind,depth", 0), 0u);
  EXPECT_NE(csv.find("0,10,30,comp,compute,0"), std::string::npos);
}

TEST(Recorder, ClearResetsEverything) {
  Recorder r;
  r.begin(0, 0, "a");
  r.instant(0, 1, "x");
  r.end(0, 2);
  r.end(0, 3);
  r.clear();
  EXPECT_TRUE(r.intervals().empty());
  EXPECT_TRUE(r.instants().empty());
  EXPECT_EQ(r.dropped_ends(), 0u);
  EXPECT_EQ(r.open_depth(0), 0u);
}

TEST(Recorder, LongLogOverManyLiteralLabelsKeepsEveryLabel) {
  // More distinct call-site labels than the pointer cache has slots, so
  // labels share slots, and a log several chunks long; then the same after
  // clear(), which restarts the label ids.
  static char labels[40][8];
  for (int i = 0; i < 40; ++i)
    std::snprintf(labels[i], sizeof labels[i], "l%02d", i);
  Recorder r;
  for (int round = 0; round < 2; ++round) {
    r.clear();
    constexpr int kSpans = 10'000;
    for (int i = 0; i < kSpans; ++i) {
      const int rank = i % 7;
      r.begin(rank, i, labels[(i * 13 + round) % 40], SpanKind::RecvBlocked);
      r.end(rank, i + 1);
    }
    const std::vector<Span>& spans = r.intervals();
    ASSERT_EQ(spans.size(), static_cast<std::size_t>(kSpans));
    for (int i = 0; i < kSpans; ++i) {
      const Span& s = spans[static_cast<std::size_t>(i)];
      ASSERT_EQ(s.label, labels[(i * 13 + round) % 40]) << "span " << i;
      ASSERT_EQ(s.rank, i % 7);
      ASSERT_EQ(s.begin, i);
      ASSERT_EQ(s.end, i + 1);
    }
    const std::string json = r.to_chrome_json();
    std::size_t begins = 0;
    for (std::size_t at = json.find("\"ph\":\"B\""); at != std::string::npos;
         at = json.find("\"ph\":\"B\"", at + 1))
      ++begins;
    EXPECT_EQ(begins, static_cast<std::size_t>(kSpans));
  }
}

TEST(SpanKindNames, AllDistinct) {
  EXPECT_STREQ(span_kind_name(SpanKind::Compute), "compute");
  const SpanKind kinds[] = {SpanKind::Compute,      SpanKind::SendBlocked,
                            SpanKind::RecvBlocked,  SpanKind::Collective,
                            SpanKind::Agreement,    SpanKind::StreamOperate,
                            SpanKind::StreamReplay, SpanKind::Other};
  for (const SpanKind a : kinds)
    for (const SpanKind b : kinds)
      if (a != b) {
        EXPECT_STRNE(span_kind_name(a), span_kind_name(b));
      }
}

}  // namespace
}  // namespace ds::obs
