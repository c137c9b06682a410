#include "alg/decompose.h"

#include <gtest/gtest.h>

#include <random>

#include "alg/dp.h"
#include "alg/lp_route.h"
#include "core/routing.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

TEST(Decompose, SafeSplitsNeedBothConditions) {
  // Identical channel cut after 4 and 8: all-switch columns are 4 and 8.
  const auto ch = SegmentedChannel::identical(2, 12, {4, 8});
  ConnectionSet cs;
  cs.add(1, 3);
  cs.add(6, 10);  // crosses column 8
  const auto cuts = safe_split_columns(ch, cs);
  EXPECT_EQ(cuts, std::vector<Column>{4});  // 8 is crossed
  // A connection crossing column 4 removes the remaining cut.
  cs.add(3, 5);
  EXPECT_TRUE(safe_split_columns(ch, cs).empty());
}

TEST(Decompose, StaggeredChannelsHaveNoAllSwitchColumns) {
  const auto ch = gen::staggered_segmentation(3, 24, 6);
  ConnectionSet cs;
  cs.add(1, 2);
  // The offsets guarantee some track bridges every column gap.
  EXPECT_TRUE(safe_split_columns(ch, cs).empty());
}

TEST(Decompose, PartsPartitionTheConnections) {
  const auto ch = SegmentedChannel::identical(2, 12, {4, 8});
  ConnectionSet cs;
  cs.add(1, 3, "a");
  cs.add(2, 4, "b");
  cs.add(5, 8, "c");
  cs.add(9, 12, "d");
  const auto parts = split_parts(ch, cs);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<ConnId>{0, 1}));
  EXPECT_EQ(parts[1], (std::vector<ConnId>{2}));
  EXPECT_EQ(parts[2], (std::vector<ConnId>{3}));
}

TEST(Decompose, AgreesWithDirectDpOnIdenticalChannels) {
  std::mt19937_64 rng(211);
  const auto dp = [](const SegmentedChannel& c, const ConnectionSet& s) {
    return dp_route(ChannelIndex(c), s);
  };
  int yes = 0, no = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const auto ch = SegmentedChannel::identical(3, 36, {6, 12, 18, 24, 30});
    const auto cs = gen::geometric_workload(
        4 + static_cast<int>(rng() % 8), 36, 4.0, rng);
    const auto direct = dp_route(ChannelIndex(ch), cs);
    const auto split = decompose_route(ch, cs, dp);
    ASSERT_EQ(direct.success, split.success) << "iter " << iter;
    if (split.success) {
      EXPECT_TRUE(validate(ch, cs, split.routing)) << "iter " << iter;
      ++yes;
    } else {
      ++no;
    }
  }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(Decompose, WorksWithTheLpSubRouter) {
  std::mt19937_64 rng(212);
  const auto lp = [](const SegmentedChannel& c, const ConnectionSet& s) {
    return lp_route(c, s);
  };
  const auto ch = SegmentedChannel::identical(4, 48, {8, 16, 24, 32, 40});
  const auto cs = gen::routable_workload(ch, 16, 5.0, rng);
  const auto r = decompose_route(ch, cs, lp);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing));
}

TEST(Decompose, NoCutsMeansOnePart) {
  const auto ch = gen::staggered_segmentation(3, 20, 5);
  ConnectionSet cs;
  cs.add(2, 6);
  cs.add(10, 14);
  const auto parts = split_parts(ch, cs);
  EXPECT_EQ(parts.size(), 1u);
  const auto r = decompose_route(ch, cs, [](const auto& c, const auto& s) {
    return dp_route(ChannelIndex(c), s);
  });
  EXPECT_TRUE(r.success);
}

TEST(Decompose, FailurePropagatesFromTheFailingPart) {
  const auto ch = SegmentedChannel::identical(1, 12, {4, 8});
  ConnectionSet cs;
  cs.add(1, 2, "ok");
  cs.add(5, 6, "x1");
  cs.add(7, 8, "x2");  // same middle segment as x1, single track
  const auto r = decompose_route(ch, cs, [](const auto& c, const auto& s) {
    return dp_route(ChannelIndex(c), s);
  });
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.note.find("part of 2"), std::string::npos);
}

TEST(Decompose, EmptyConnectionSet) {
  const auto ch = SegmentedChannel::identical(1, 8, {4});
  const auto r = decompose_route(ch, ConnectionSet{},
                                 [](const auto& c, const auto& s) {
                                   return dp_route(ChannelIndex(c), s);
                                 });
  EXPECT_TRUE(r.success);
}

}  // namespace
}  // namespace segroute::alg
