#include "alg/greedy1.h"

#include <gtest/gtest.h>

#include <random>

#include "alg/match1.h"
#include "core/routing.h"
#include "gen/fixtures.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

TEST(Greedy1, RoutesTheFig3Example) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  Greedy1Trace trace;
  const auto r = greedy1_route_traced(ChannelIndex(ch), cs, &trace);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing, 1));
  // Frozen expected assignment of the reconstructed Fig. 3 instance:
  // c1 -> s21, c2 -> s12, c3 -> s31, c4 -> s13, c5 -> s23.
  EXPECT_EQ(r.routing.track_of(0), 1);
  EXPECT_EQ(trace.segment_of[0], 0);
  EXPECT_EQ(r.routing.track_of(1), 0);
  EXPECT_EQ(trace.segment_of[1], 1);
  EXPECT_EQ(r.routing.track_of(2), 2);
  EXPECT_EQ(trace.segment_of[2], 0);
  EXPECT_EQ(r.routing.track_of(3), 0);
  EXPECT_EQ(trace.segment_of[3], 2);
  EXPECT_EQ(r.routing.track_of(4), 1);
  EXPECT_EQ(trace.segment_of[4], 2);
}

TEST(Greedy1, EveryProducedRoutingIsOneSegment) {
  std::mt19937_64 rng(31);
  for (int iter = 0; iter < 40; ++iter) {
    const auto ch = gen::staggered_segmentation(5, 24, 6);
    const auto cs = gen::geometric_workload(8, 24, 4.0, rng);
    const auto r = greedy1_route(ChannelIndex(ch), cs);
    if (r.success) {
      EXPECT_TRUE(validate(ch, cs, r.routing, 1)) << "iter " << iter;
    }
  }
}

TEST(Greedy1, Theorem3ExactnessAgainstMatchingOracle) {
  // Greedy succeeds iff a 1-segment routing exists (maximum bipartite
  // matching decides the latter independently).
  std::mt19937_64 rng(32);
  int successes = 0, failures = 0;
  for (int iter = 0; iter < 150; ++iter) {
    const Column width = 18;
    const auto ch = SegmentedChannel(
        {Track(width, {5, 11}), Track(width, {8, 14}), Track(width, {3, 9, 15}),
         Track(width, {6, 12})});
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        4 + static_cast<int>(rng() % 8), width, 4.0, rng);
    const bool greedy_ok = greedy1_route(idx, cs).success;
    const bool oracle_ok = match1_route(idx, cs).success;
    EXPECT_EQ(greedy_ok, oracle_ok) << "iter " << iter;
    (greedy_ok ? successes : failures)++;
  }
  // The sweep must exercise both outcomes to be meaningful.
  EXPECT_GT(successes, 0);
  EXPECT_GT(failures, 0);
}

TEST(Greedy1, TieBreakDoesNotAffectSuccess) {
  std::mt19937_64 rng(33);
  for (int iter = 0; iter < 80; ++iter) {
    const auto ch = gen::uniform_segmentation(4, 20, 5);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        3 + static_cast<int>(rng() % 7), 20, 4.0, rng);
    EXPECT_EQ(greedy1_route(idx, cs, TieBreak::LowestTrack).success,
              greedy1_route(idx, cs, TieBreak::HighestTrack).success)
        << "iter " << iter;
  }
}

TEST(Greedy1, ChoosesSegmentWithSmallestRightEnd) {
  // Two candidate tracks; the one whose free segment ends sooner wins.
  const auto ch = SegmentedChannel({Track(9, {6}), Track(9, {4})});
  ConnectionSet cs;
  cs.add(1, 3, "c");
  const auto r = greedy1_route(ChannelIndex(ch), cs);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.routing.track_of(0), 1);  // (1,4) ends before (1,6)
}

TEST(Greedy1, FailsWhenOnlyMultiSegmentAssignmentsExist) {
  const auto ch = SegmentedChannel::fully_segmented(3, 6);
  ConnectionSet cs;
  cs.add(2, 3);  // always two unit segments
  const auto r = greedy1_route(ChannelIndex(ch), cs);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.note.empty());
}

TEST(Greedy1, FailsWhenSegmentsAreOccupied) {
  const auto ch = SegmentedChannel::identical(1, 9, {4});
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(3, 4);  // same segment as the first
  EXPECT_FALSE(greedy1_route(ChannelIndex(ch), cs).success);
}

TEST(Greedy1, EmptySetAndOversizedConnections) {
  const auto ch = SegmentedChannel::identical(1, 5, {});
  const ChannelIndex idx(ch);
  EXPECT_TRUE(greedy1_route(idx, ConnectionSet{}).success);
  ConnectionSet big;
  big.add(1, 7);
  EXPECT_FALSE(greedy1_route(idx, big).success);
}

}  // namespace
}  // namespace segroute::alg
