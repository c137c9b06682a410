#include "alg/left_edge.h"

#include <gtest/gtest.h>

#include <random>

#include "core/routing.h"
#include "gen/fixtures.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

TEST(LeftEdgeUnconstrained, UsesExactlyDensityTracks) {
  // Fig. 2(b): with full freedom, left-edge needs density(cs) tracks.
  const auto cs = gen::fixtures::fig2_connections();
  const auto r = left_edge_unconstrained(cs);
  ASSERT_TRUE(r.success);
  TrackId max_track = 0;
  for (ConnId i = 0; i < cs.size(); ++i) {
    max_track = std::max(max_track, r.routing.track_of(i));
  }
  EXPECT_EQ(max_track + 1, cs.density());
  EXPECT_EQ(unconstrained_tracks_needed(cs), cs.density());
}

TEST(LeftEdgeUnconstrained, DensityTrackCountOnRandomWorkloads) {
  std::mt19937_64 rng(5);
  for (int iter = 0; iter < 30; ++iter) {
    const auto cs = gen::uniform_workload(12, 30, rng);
    const auto r = left_edge_unconstrained(cs);
    ASSERT_TRUE(r.success);
    TrackId max_track = -1;
    for (ConnId i = 0; i < cs.size(); ++i) {
      max_track = std::max(max_track, r.routing.track_of(i));
    }
    EXPECT_EQ(max_track + 1, cs.density()) << "iter " << iter;
    // The produced assignment never overlaps two nets on one track.
    const auto ch = SegmentedChannel::fully_segmented(max_track + 1, 30);
    EXPECT_TRUE(validate(ch, cs, r.routing)) << "iter " << iter;
  }
}

TEST(LeftEdgeIdentical, RoutesWhenSegmentsAlign) {
  const auto ch = SegmentedChannel::identical(2, 9, {3, 6});
  ConnectionSet cs;
  cs.add(1, 3);
  cs.add(4, 6);
  cs.add(2, 5);  // crosses the switch: needs two segments on some track
  cs.add(7, 9);
  const auto r = left_edge_route(ChannelIndex(ch), cs);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing));
}

TEST(LeftEdgeIdentical, HonorsSegmentLimit) {
  const auto ch = SegmentedChannel::identical(2, 9, {3, 6});
  const ChannelIndex idx(ch);
  ConnectionSet cs;
  cs.add(2, 8);  // 3 segments everywhere
  EXPECT_TRUE(left_edge_route(idx, cs).success);
  const auto r = left_edge_route(idx, cs, 2);
  EXPECT_FALSE(r.success);
}

TEST(LeftEdgeIdentical, FailsWhenTracksExhausted) {
  const auto ch = SegmentedChannel::identical(2, 9, {3});
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(2, 3);
  cs.add(3, 3);  // three nets in one segment's columns, two tracks
  const auto r = left_edge_route(ChannelIndex(ch), cs);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.note.empty());
}

TEST(LeftEdgeIdentical, NonIdenticalChannelIsInvalidInput) {
  const auto ch = SegmentedChannel({Track(9, {3}), Track(9, {4})});
  ConnectionSet cs;
  cs.add(1, 2);
  const auto r = left_edge_route(ChannelIndex(ch), cs);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureKind::kInvalidInput);
  EXPECT_FALSE(r.note.empty());
}

TEST(LeftEdgeIdentical, ExtendedDensityIsAValidUpperBound) {
  // Section IV-A: extend connections to switch-adjacent columns, then the
  // density bounds the tracks left-edge needs.
  std::mt19937_64 rng(17);
  for (int iter = 0; iter < 30; ++iter) {
    const Column width = 24;
    const auto one = SegmentedChannel::identical(1, width, {6, 12, 18});
    auto cs = gen::geometric_workload(10, width, 4.0, rng);
    const int bound = cs.extended_density(one);
    const auto ch = SegmentedChannel::identical(bound, width, {6, 12, 18});
    const auto r = left_edge_route(ChannelIndex(ch), cs);
    EXPECT_TRUE(r.success) << "iter " << iter << ": " << r.note;
    if (r.success) {
      EXPECT_TRUE(validate(ch, cs, r.routing));
    }
  }
}

TEST(LeftEdgeIdentical, PlainDensityIsNotAlwaysEnough) {
  // The paper notes plain density does NOT bound the tracks needed.
  // Two disjoint nets in one segment's span: density 1, but both occupy
  // the same segment, so one track cannot carry them.
  const auto ch = SegmentedChannel::identical(1, 9, {});
  ConnectionSet cs;
  cs.add(1, 2);
  cs.add(4, 5);
  EXPECT_EQ(cs.density(), 1);
  EXPECT_FALSE(left_edge_route(ChannelIndex(ch), cs).success);
}

TEST(LeftEdgeIdentical, EmptyConnectionSetSucceeds) {
  const auto ch = SegmentedChannel::identical(1, 5, {});
  EXPECT_TRUE(left_edge_route(ChannelIndex(ch), ConnectionSet{}).success);
}

TEST(LeftEdgeIdentical, RejectsOversizedConnections) {
  const auto ch = SegmentedChannel::identical(1, 5, {});
  ConnectionSet cs;
  cs.add(1, 9);
  EXPECT_FALSE(left_edge_route(ChannelIndex(ch), cs).success);
}

}  // namespace
}  // namespace segroute::alg
