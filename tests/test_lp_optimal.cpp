#include <gtest/gtest.h>

#include <random>

#include "alg/dp.h"
#include "alg/lp_route.h"
#include "core/routing.h"
#include "gen/fixtures.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

TEST(LpOptimal, MatchesTheDpOptimumOnFig3) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto w = weights::occupied_length();
  const auto lp = lp_route_optimal(ch, cs, w);
  const auto dp = dp_route(ChannelIndex(ch), cs, {.weight = w});
  ASSERT_TRUE(lp.success) << lp.note;
  ASSERT_TRUE(dp.success);
  EXPECT_TRUE(validate(ch, cs, lp.routing));
  EXPECT_NEAR(lp.weight, dp.weight, 0.5);  // jitter-tolerant comparison
}

TEST(LpOptimal, IntegralRelaxationsHitTheExactOptimum) {
  std::mt19937_64 rng(201);
  const auto w = weights::occupied_length();
  int checked = 0;
  for (int iter = 0; iter < 40; ++iter) {
    const auto ch = gen::staggered_segmentation(4, 20, 5);
    const auto cs = gen::geometric_workload(
        3 + static_cast<int>(rng() % 5), 20, 4.0, rng);
    const auto dp = dp_route(ChannelIndex(ch), cs, {.weight = w});
    if (!dp.success) continue;
    LpRouteOptions o;
    o.max_rounding_passes = 0;  // pure relaxation only
    const auto lp = lp_route_optimal(ch, cs, w, o);
    if (!lp.success || !lp.stats.lp_integral) continue;
    ++checked;
    EXPECT_TRUE(validate(ch, cs, lp.routing)) << "iter " << iter;
    // The jitter is < 1e-4 per variable, so a true LP optimum can exceed
    // the exact optimum by at most M * 1e-4 worth of tie-breaking.
    EXPECT_NEAR(lp.weight, dp.weight, 0.01) << "iter " << iter;
  }
  EXPECT_GT(checked, 5);
}

TEST(LpOptimal, RespectsTheSegmentCapWeight) {
  const auto ch = SegmentedChannel::identical(2, 9, {3, 6});
  ConnectionSet cs;
  cs.add(2, 8);  // 3 segments in every track
  const auto lp = lp_route_optimal(ch, cs, weights::segments_capped(2));
  EXPECT_FALSE(lp.success);
  EXPECT_NE(lp.note.find("no finite-weight"), std::string::npos);
}

TEST(LpOptimal, DetectsInfeasibleInstances) {
  const auto ch = SegmentedChannel::identical(1, 9, {4});
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(3, 4);
  const auto lp = lp_route_optimal(ch, cs, weights::occupied_length());
  EXPECT_FALSE(lp.success);
}

TEST(LpOptimal, EmptyInput) {
  const auto ch = SegmentedChannel::identical(1, 4, {});
  EXPECT_TRUE(
      lp_route_optimal(ch, ConnectionSet{}, weights::unit()).success);
}

TEST(LpOptimal, KSegmentOptionFiltersVariables) {
  const auto ch = SegmentedChannel({Track(9, {4}), Track(9, {})});
  ConnectionSet cs;
  cs.add(3, 6);  // 2 segments on track 0, 1 on track 1
  LpRouteOptions o;
  o.max_segments = 1;
  const auto lp = lp_route_optimal(ch, cs, weights::occupied_length(), o);
  ASSERT_TRUE(lp.success) << lp.note;
  EXPECT_EQ(lp.routing.track_of(0), 1);
}

}  // namespace
}  // namespace segroute::alg
