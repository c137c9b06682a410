#include "alg/match1.h"

#include <gtest/gtest.h>

#include <random>

#include "alg/dp.h"
#include "alg/greedy1.h"
#include "core/routing.h"
#include "gen/fixtures.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

TEST(Match1, RoutesFig3AndValidatesAsOneSegment) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = match1_route(ChannelIndex(ch), cs);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing, 1));
}

TEST(Match1, FeasibilityAgreesWithGreedyOnRandomInstances) {
  std::mt19937_64 rng(51);
  for (int iter = 0; iter < 100; ++iter) {
    const auto ch = gen::staggered_segmentation(4, 20, 5);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        3 + static_cast<int>(rng() % 8), 20, 4.0, rng);
    EXPECT_EQ(match1_route(idx, cs).success, greedy1_route(idx, cs).success)
        << "iter " << iter;
  }
}

TEST(Match1Optimal, MinimizesOccupiedLength) {
  // Connection (1,3) could sit in a length-6 segment (track 0) or a
  // length-4 segment (track 1): the optimum picks the shorter.
  const auto ch = SegmentedChannel({Track(9, {6}), Track(9, {4})});
  ConnectionSet cs;
  cs.add(1, 3);
  const auto r =
      match1_route_optimal(ChannelIndex(ch), cs, weights::occupied_length());
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.routing.track_of(0), 1);
  EXPECT_DOUBLE_EQ(r.weight, 4.0);
}

TEST(Match1Optimal, GlobalOptimumAvoidsStarvingLaterConnections) {
  // "first" has a cheap seat on track 0, but "second" can only live on
  // track 1's first segment; the matching must settle the unique global
  // optimum (and not starve "second" by a myopic choice).
  const auto ch = SegmentedChannel({Track(9, {4}), Track(9, {6})});
  ConnectionSet cs;
  cs.add(1, 3, "first");   // t0 (1,4) len 4, or t1 (1,6) len 6
  cs.add(2, 6, "second");  // only t1 (1,6)
  const auto r =
      match1_route_optimal(ChannelIndex(ch), cs, weights::occupied_length());
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.routing.track_of(0), 0);
  EXPECT_EQ(r.routing.track_of(1), 1);
  EXPECT_DOUBLE_EQ(r.weight, 10.0);
}

TEST(Match1Optimal, AgreesWithDpOptimalOnRandomInstances) {
  std::mt19937_64 rng(52);
  const auto w = weights::occupied_length();
  for (int iter = 0; iter < 40; ++iter) {
    const auto ch = gen::staggered_segmentation(4, 18, 5);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 6), 18, 3.5, rng);
    const auto m = match1_route_optimal(idx, cs, w);
    // DP restricted to K=1 solves the same problem.
    DpOptions o;
    o.max_segments = 1;
    o.weight = w;
    const auto d = dp_route(idx, cs, o);
    ASSERT_EQ(m.success, d.success) << "iter " << iter;
    if (m.success) {
      EXPECT_NEAR(m.weight, d.weight, 1e-9) << "iter " << iter;
      EXPECT_TRUE(validate(ch, cs, m.routing, 1));
    }
  }
}

TEST(Match1Optimal, InfeasibleWhenNoOneSegmentRoutingExists) {
  const auto ch = SegmentedChannel::fully_segmented(2, 5);
  ConnectionSet cs;
  cs.add(1, 2);
  const auto r =
      match1_route_optimal(ChannelIndex(ch), cs, weights::occupied_length());
  EXPECT_FALSE(r.success);
}

TEST(Match1Optimal, RespectsInfiniteWeightsAsForbidden) {
  const auto ch = SegmentedChannel({Track(9, {4}), Track(9, {})});
  ConnectionSet cs;
  cs.add(1, 3);
  // Forbid anything occupying more than 4 columns: only track 0 remains.
  const auto w = [](const SegmentedChannel& c, const Connection& cc,
                    TrackId t) {
    const double len =
        static_cast<double>(c.track(t).occupied_length(cc.left, cc.right));
    return len > 4 ? std::numeric_limits<double>::infinity() : len;
  };
  const auto r = match1_route_optimal(ChannelIndex(ch), cs, w);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.routing.track_of(0), 0);
}

TEST(Match1Optimal, EmptyInputSucceedsWithZeroWeight) {
  const auto ch = SegmentedChannel::identical(1, 5, {});
  const auto r = match1_route_optimal(ChannelIndex(ch), ConnectionSet{},
                                      weights::occupied_length());
  EXPECT_TRUE(r.success);
  EXPECT_DOUBLE_EQ(r.weight, 0.0);
}

TEST(Match1, MoreConnectionsThanSegmentsFails) {
  const auto ch = SegmentedChannel::identical(1, 9, {4});  // two segments
  const ChannelIndex idx(ch);
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(3, 4);
  cs.add(5, 6);
  EXPECT_FALSE(match1_route(idx, cs).success);
  EXPECT_FALSE(
      match1_route_optimal(idx, cs, weights::occupied_length()).success);
}

}  // namespace
}  // namespace segroute::alg
