#include "mpi/group.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ds::mpi {
namespace {

TEST(Group, WorldIsIdentity) {
  const Group g = Group::world(4);
  EXPECT_EQ(g.size(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(g.world_rank(i), i);
    EXPECT_EQ(g.rank_of(i), i);
  }
}

TEST(Group, CustomOrderTranslates) {
  const Group g({5, 2, 9});
  EXPECT_EQ(g.world_rank(0), 5);
  EXPECT_EQ(g.rank_of(9), 2);
  EXPECT_EQ(g.rank_of(3), -1);
  EXPECT_TRUE(g.contains(2));
  EXPECT_FALSE(g.contains(4));
}

TEST(Group, DuplicateMembersRejected) {
  EXPECT_THROW(Group({1, 2, 1}), std::invalid_argument);
}

TEST(Group, IncludeSelectsInGivenOrder) {
  const Group g({10, 20, 30, 40});
  const Group sub = g.include({3, 0});
  EXPECT_EQ(sub.size(), 2);
  EXPECT_EQ(sub.world_rank(0), 40);
  EXPECT_EQ(sub.world_rank(1), 10);
}

TEST(Group, IncludeOutOfRangeThrows) {
  const Group g({1, 2});
  EXPECT_THROW(g.include({2}), std::out_of_range);
}

TEST(Group, ExcludeKeepsOrder) {
  const Group g({10, 20, 30, 40});
  const Group sub = g.exclude({1});
  EXPECT_EQ(sub.members(), (std::vector<int>{10, 30, 40}));
}

TEST(Group, ExcludeInvalidThrows) {
  const Group g({10});
  EXPECT_THROW(g.exclude({-1}), std::out_of_range);
  EXPECT_THROW(g.exclude({1}), std::out_of_range);
}

TEST(Group, FilterByPosition) {
  const Group g = Group::world(10);
  const Group evens = g.filter_by_position([](int r) { return r % 2 == 0; });
  EXPECT_EQ(evens.size(), 5);
  EXPECT_EQ(evens.world_rank(2), 4);
}

TEST(Group, Equality) {
  EXPECT_EQ(Group({1, 2}), Group({1, 2}));
  EXPECT_FALSE(Group({1, 2}) == Group({2, 1}));
}

/// rank_of must agree with a linear scan for every world rank in
/// [-2, max + 2], members and non-members alike.
void expect_rank_of_matches_scan(const Group& g) {
  const std::vector<int>& m = g.members();
  const int max = m.empty() ? 0 : *std::max_element(m.begin(), m.end());
  for (int w = -2; w <= max + 2; ++w) {
    const auto it = std::find(m.begin(), m.end(), w);
    const int expected =
        it == m.end() ? -1 : static_cast<int>(it - m.begin());
    EXPECT_EQ(g.rank_of(w), expected) << "world rank " << w;
    EXPECT_EQ(g.contains(w), expected >= 0) << "world rank " << w;
  }
}

TEST(Group, RankOfMatchesScanOnWorld) {
  expect_rank_of_matches_scan(Group::world(1));
  expect_rank_of_matches_scan(Group::world(2048));
}

TEST(Group, RankOfMatchesScanOnAscendingSplit) {
  // A colour split of the world: every third rank, still ascending.
  const Group g =
      Group::world(300).filter_by_position([](int r) { return r % 3 == 1; });
  ASSERT_EQ(g.size(), 100);
  expect_rank_of_matches_scan(g);
}

TEST(Group, RankOfMatchesScanOnChannelShapedGroup) {
  // Channel member list: non-helpers ascending, then helpers ascending, the
  // helpers interleaved with the non-helpers in world order.
  std::vector<int> members;
  for (int w = 0; w < 64; ++w)
    if (w % 4 != 3) members.push_back(w);
  for (int w = 3; w < 64; w += 4) members.push_back(w);
  expect_rank_of_matches_scan(Group(members));
  // Two runs whose second run lies wholly below the first.
  expect_rank_of_matches_scan(Group({40, 41, 42, 0, 1, 2, 3}));
}

TEST(Group, RankOfMatchesScanOnPermutation) {
  // More than two ascending runs: the lookup must fall back to a scan.
  const Group world = Group::world(40);
  std::vector<int> perm;
  for (int i = 0; i < 40; ++i) perm.push_back((i * 7) % 40);
  expect_rank_of_matches_scan(world.include(perm));
  expect_rank_of_matches_scan(Group({5, 1, 4, 2, 3}));
  expect_rank_of_matches_scan(Group({3, 2, 1, 0}));
}

TEST(Group, RankOfMatchesScanOnSingleAndEmpty) {
  expect_rank_of_matches_scan(Group({17}));
  expect_rank_of_matches_scan(Group());
  expect_rank_of_matches_scan(Group(std::vector<int>{}));
  EXPECT_EQ(Group().rank_of(0), -1);
}

TEST(Group, RankOfMatchesLinearScanOnEveryShape) {
  // One group of each shape rank_of distinguishes: contiguous runs from 0
  // and from an offset, one run with gaps, two runs, an arbitrary order, a
  // single member, and no members.
  expect_rank_of_matches_scan(Group::world(64));
  expect_rank_of_matches_scan(Group::world(128).filter_by_position(
      [](int r) { return r >= 37 && r < 37 + 50; }));
  expect_rank_of_matches_scan(Group({2, 3, 5, 8, 13, 21}));
  expect_rank_of_matches_scan(Group({10, 11, 12, 13, 0, 1, 2}));
  expect_rank_of_matches_scan(Group::world(12).include({4, 9, 0, 11, 3}));
  expect_rank_of_matches_scan(Group({7}));
  expect_rank_of_matches_scan(Group());
}

}  // namespace
}  // namespace ds::mpi
