#include "alg/branch_bound.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "alg/dp.h"
#include "core/routing.h"
#include "gen/fixtures.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

SegmentedChannel random_channel(TrackId T, Column width, int max_cuts,
                                std::mt19937_64& rng) {
  std::vector<Track> tracks;
  for (TrackId t = 0; t < T; ++t) {
    std::set<Column> cuts;
    const int k = static_cast<int>(rng() % static_cast<unsigned>(max_cuts + 1));
    for (int i = 0; i < k; ++i) {
      cuts.insert(1 + static_cast<Column>(rng() % (width - 1)));
    }
    tracks.emplace_back(width, std::vector<Column>(cuts.begin(), cuts.end()));
  }
  return SegmentedChannel(std::move(tracks));
}

TEST(BranchBound, MatchesTheDpOptimumOnFig3) {
  const auto ch = gen::fixtures::fig3_channel();
  const ChannelIndex idx(ch);
  const auto cs = gen::fixtures::fig3_connections();
  const auto w = weights::occupied_length();
  const auto bb = branch_bound_route(idx, cs, w);
  const auto dp = dp_route(idx, cs, {.weight = w});
  ASSERT_TRUE(bb.success && dp.success);
  EXPECT_TRUE(validate(ch, cs, bb.routing));
  EXPECT_NEAR(bb.weight, dp.weight, 1e-9);
}

TEST(BranchBound, MatchesDpOptimalOnRandomInstances) {
  std::mt19937_64 rng(221);
  const auto w = weights::occupied_length();
  int feasible = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const auto ch = random_channel(4, 16, 4, rng);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        3 + static_cast<int>(rng() % 5), 16, 4.0, rng);
    const auto bb = branch_bound_route(idx, cs, w);
    const auto dp = dp_route(idx, cs, {.weight = w});
    ASSERT_EQ(bb.success, dp.success) << "iter " << iter;
    if (bb.success) {
      ++feasible;
      EXPECT_NEAR(bb.weight, dp.weight, 1e-9) << "iter " << iter;
      EXPECT_TRUE(validate(ch, cs, bb.routing)) << "iter " << iter;
    }
  }
  EXPECT_GT(feasible, 10);
}

TEST(BranchBound, RespectsTheSegmentLimit) {
  std::mt19937_64 rng(222);
  const auto w = weights::occupied_length();
  for (int iter = 0; iter < 30; ++iter) {
    const auto ch = random_channel(3, 14, 4, rng);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 4), 14, 4.0, rng);
    BranchBoundOptions o;
    o.max_segments = 2;
    const auto bb = branch_bound_route(idx, cs, w, o);
    const auto dp = dp_route(idx, cs, {.max_segments = 2, .weight = w});
    ASSERT_EQ(bb.success, dp.success) << "iter " << iter;
    if (bb.success) {
      EXPECT_TRUE(validate(ch, cs, bb.routing, 2)) << "iter " << iter;
      EXPECT_NEAR(bb.weight, dp.weight, 1e-9) << "iter " << iter;
    }
  }
}

TEST(BranchBound, InfiniteWeightsForbidAssignments) {
  const auto ch = SegmentedChannel({Track(9, {4}), Track(9, {})});
  ConnectionSet cs;
  cs.add(1, 3);
  const auto bb =
      branch_bound_route(ChannelIndex(ch), cs, weights::segments_capped(1));
  ASSERT_TRUE(bb.success);
  // Track 0 segment (1,4): 1 segment; track 1 is also 1 segment, but the
  // cheapest (count weight 1) either way — just confirm validity.
  EXPECT_TRUE(validate(ch, cs, bb.routing, 1));
}

TEST(BranchBound, InfeasibleAndDegenerateInputs) {
  const auto ch = SegmentedChannel::identical(1, 9, {4});
  const ChannelIndex idx(ch);
  ConnectionSet two;
  two.add(1, 2);
  two.add(3, 4);
  EXPECT_FALSE(
      branch_bound_route(idx, two, weights::occupied_length()).success);
  EXPECT_TRUE(branch_bound_route(idx, ConnectionSet{},
                                 weights::occupied_length())
                  .success);
  ConnectionSet big;
  big.add(1, 99);
  EXPECT_FALSE(
      branch_bound_route(idx, big, weights::occupied_length()).success);
}

TEST(BranchBound, NodeLimitReportsBestEffort) {
  std::mt19937_64 rng(223);
  const auto ch = random_channel(5, 24, 5, rng);
  const auto cs = gen::geometric_workload(10, 24, 5.0, rng);
  BranchBoundOptions o;
  o.max_nodes = 3;  // absurdly small
  const auto bb =
      branch_bound_route(ChannelIndex(ch), cs, weights::occupied_length(), o);
  EXPECT_FALSE(bb.success);
  EXPECT_EQ(bb.failure, FailureKind::kBudgetExhausted);
  EXPECT_NE(bb.note.find("node limit"), std::string::npos);
}

TEST(BranchBound, PrunesComparedToPlainBacktracking) {
  // The suffix bound must cut the tree: expanded nodes stay modest on a
  // mid-size instance where full enumeration would be astronomical.
  std::mt19937_64 rng(224);
  const auto ch = gen::staggered_segmentation(6, 32, 8);
  const auto cs = gen::routable_workload(ch, 14, 6.0, rng);
  const auto bb =
      branch_bound_route(ChannelIndex(ch), cs, weights::occupied_length());
  ASSERT_TRUE(bb.success);
  EXPECT_LT(bb.stats.iterations, 2'000'000u);
}

}  // namespace
}  // namespace segroute::alg
