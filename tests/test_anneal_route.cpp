#include "alg/anneal_route.h"

#include <gtest/gtest.h>

#include <random>

#include "alg/dp.h"
#include "core/routing.h"
#include "gen/fixtures.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

TEST(AnnealRoute, RoutesTheFig3Example) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = anneal_route(ch, cs);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing));
}

TEST(AnnealRoute, NeverClaimsSuccessWithAnInvalidRouting) {
  std::mt19937_64 rng(181);
  for (int iter = 0; iter < 25; ++iter) {
    const auto ch = gen::staggered_segmentation(4, 24, 6);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        4 + static_cast<int>(rng() % 8), 24, 5.0, rng);
    AnnealRouteOptions o;
    o.seed = iter;
    o.iterations = 20000;
    const auto r = anneal_route(ch, cs, o);
    if (r.success) {
      EXPECT_TRUE(validate(ch, cs, r.routing)) << "iter " << iter;
      // Success implies the exact router agrees the instance is routable.
      EXPECT_TRUE(dp_route(idx, cs).success) << "iter " << iter;
    }
  }
}

TEST(AnnealRoute, SolvesRoutableByConstructionInstancesAtScale) {
  // A size where the witness exists by construction; the annealer should
  // find *a* conflict-free assignment (not necessarily the witness).
  std::mt19937_64 rng(182);
  const auto ch = gen::staggered_segmentation(20, 80, 10);
  const auto cs = gen::routable_workload(ch, 50, 8.0, rng);
  AnnealRouteOptions o;
  o.iterations = 400000;
  o.restarts = 4;
  const auto r = anneal_route(ch, cs, o);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing));
}

TEST(AnnealRoute, RespectsTheSegmentLimit) {
  std::mt19937_64 rng(183);
  const auto ch = gen::staggered_segmentation(6, 24, 6);
  const auto cs = gen::routable_workload(ch, 8, 4.0, rng, /*max_segments=*/2);
  AnnealRouteOptions o;
  o.max_segments = 2;
  const auto r = anneal_route(ch, cs, o);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing, 2));
}

TEST(AnnealRoute, FailsCleanlyWhenNoTrackAdmitsAConnection) {
  const auto ch = SegmentedChannel::fully_segmented(3, 8);
  ConnectionSet cs;
  cs.add(2, 5);
  AnnealRouteOptions o;
  o.max_segments = 2;  // (2,5) needs 4 unit segments everywhere
  const auto r = anneal_route(ch, cs, o);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.note.find("segment limit"), std::string::npos);
}

TEST(AnnealRoute, GivesUpOnUnroutableInstances) {
  const auto ch = SegmentedChannel::identical(1, 9, {4});
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(3, 4);  // same segment of the single track
  AnnealRouteOptions o;
  o.iterations = 5000;
  o.restarts = 2;
  const auto r = anneal_route(ch, cs, o);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.stats.iterations, 0u);
}

TEST(AnnealRoute, EmptyAndOversizedInputs) {
  const auto ch = SegmentedChannel::identical(2, 6, {3});
  EXPECT_TRUE(anneal_route(ch, ConnectionSet{}).success);
  ConnectionSet big;
  big.add(1, 99);
  EXPECT_FALSE(anneal_route(ch, big).success);
}

TEST(AnnealRoute, DeterministicForAFixedSeed) {
  std::mt19937_64 rng(184);
  const auto ch = gen::staggered_segmentation(4, 20, 5);
  const auto cs = gen::geometric_workload(6, 20, 4.0, rng);
  AnnealRouteOptions o;
  o.seed = 42;
  const auto a = anneal_route(ch, cs, o);
  const auto b = anneal_route(ch, cs, o);
  EXPECT_EQ(a.success, b.success);
  if (a.success) {
    EXPECT_EQ(a.routing, b.routing);
  }
}

}  // namespace
}  // namespace segroute::alg
