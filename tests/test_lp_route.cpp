#include "alg/lp_route.h"

#include <gtest/gtest.h>

#include <random>

#include "alg/dp.h"
#include "core/routing.h"
#include "gen/fixtures.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

TEST(LpRoute, RoutesFig3) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = lp_route(ch, cs);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing));
  EXPECT_NEAR(r.stats.lp_objective, cs.size(), 1e-6);
}

TEST(LpRoute, AgreesWithDpOnRandomInstances) {
  std::mt19937_64 rng(81);
  int yes = 0, no = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const auto ch = gen::staggered_segmentation(4, 20, 5);
    const auto cs = gen::geometric_workload(
        3 + static_cast<int>(rng() % 6), 20, 4.0, rng);
    const bool dp_ok = dp_route(ChannelIndex(ch), cs).success;
    const auto lp = lp_route(ch, cs);
    if (lp.success) {
      EXPECT_TRUE(dp_ok) << "iter " << iter;  // LP can never invent routings
      EXPECT_TRUE(validate(ch, cs, lp.routing)) << "iter " << iter;
      ++yes;
    } else {
      // The heuristic may fail on feasible instances in principle, but the
      // relaxation bound is exact for infeasibility: obj < M proves it.
      if (lp.stats.lp_objective < cs.size() - 1e-6) {
        EXPECT_FALSE(dp_ok) << "iter " << iter;
      }
      ++no;
    }
  }
  EXPECT_GT(yes, 0);
  EXPECT_GT(no, 0);
}

TEST(LpRoute, KSegmentVariantDropsForbiddenVariables) {
  std::mt19937_64 rng(82);
  for (int iter = 0; iter < 30; ++iter) {
    const auto ch = gen::uniform_segmentation(4, 20, 4);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 5), 20, 3.5, rng);
    LpRouteOptions o;
    o.max_segments = 1;
    const auto r = lp_route(ch, cs, o);
    if (r.success) {
      EXPECT_TRUE(validate(ch, cs, r.routing, 1)) << "iter " << iter;
    } else {
      EXPECT_FALSE(dp_route(idx, cs, {.max_segments = 1}).success)
          << "iter " << iter;
    }
  }
}

TEST(LpRoute, DetectsInfeasibilityViaRelaxationBound) {
  const auto ch = SegmentedChannel::identical(1, 9, {4});
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(3, 4);  // same segment of the single track
  const auto r = lp_route(ch, cs);
  EXPECT_FALSE(r.success);
  EXPECT_LT(r.stats.lp_objective, 2.0 - 1e-6);
}

TEST(LpRoute, EmptyInputSucceeds) {
  const auto ch = SegmentedChannel::identical(1, 5, {});
  EXPECT_TRUE(lp_route(ch, ConnectionSet{}).success);
}

TEST(LpRoute, PaperScaleInstanceIsIntegralAndRoutable) {
  // Section IV-C reports simulations at M = 60, T = 25 where the plain
  // relaxation almost always lands on a 0-1 vertex. Build a
  // routable-by-construction instance at that scale: the LP must route it
  // and its relaxation objective must reach M.
  std::mt19937_64 rng(83);
  const Column width = 100;
  const auto ch = gen::staggered_segmentation(25, width, 20);
  const auto cs = gen::routable_workload(ch, 60, 12.0, rng);
  ASSERT_EQ(cs.size(), 60);
  const auto lp = lp_route(ch, cs);
  EXPECT_TRUE(lp.success) << lp.note;
  EXPECT_NEAR(lp.stats.lp_objective, 60.0, 1e-6);
  if (lp.success) {
    EXPECT_TRUE(validate(ch, cs, lp.routing));
  }
}

TEST(LpRoute, RoundingPassesAreBounded) {
  std::mt19937_64 rng(84);
  const auto ch = gen::staggered_segmentation(6, 30, 6);
  const auto cs = gen::geometric_workload(12, 30, 5.0, rng);
  LpRouteOptions o;
  o.max_rounding_passes = 0;  // pure relaxation
  const auto r = lp_route(ch, cs, o);
  EXPECT_EQ(r.stats.rounding_passes, 0);
  // With rounding disabled, success requires the relaxation itself to be
  // integral.
  if (r.success) {
    EXPECT_TRUE(r.stats.lp_integral);
  }
}

}  // namespace
}  // namespace segroute::alg
