// The frozen paper-figure fixtures carry documented guarantees (see
// src/gen/fixtures.h); this suite pins every one of them so a future
// edit cannot silently break an example or bench.
#include "gen/fixtures.h"

#include <gtest/gtest.h>

#include "alg/dp.h"
#include "alg/generalized_dp.h"
#include "alg/greedy1.h"
#include "alg/greedy2track.h"
#include "alg/left_edge.h"
#include "core/routing.h"

namespace segroute::gen::fixtures {
namespace {

TEST(Fixtures, Fig2ConnectionsHaveDensityTwo) {
  const auto cs = fig2_connections();
  EXPECT_EQ(cs.size(), 4);
  EXPECT_EQ(cs.density(), 2);
  EXPECT_EQ(cs.max_right(), 9);
}

TEST(Fixtures, Fig2OneSegmentChannelRoutesEveryNetInOneSegment) {
  const auto ch = fig2_channel_1segment();
  const auto cs = fig2_connections();
  EXPECT_EQ(ch.num_tracks(), cs.density());
  const auto r = alg::greedy1_route(ChannelIndex(ch), cs);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing, 1));
}

TEST(Fixtures, Fig2TwoSegmentChannelRoutesWithKTwoButNotKOne) {
  const auto ch = fig2_channel_2segment();
  const ChannelIndex idx(ch);
  const auto cs = fig2_connections();
  EXPECT_TRUE(ch.identically_segmented());
  EXPECT_TRUE(alg::dp_route(idx, cs, {.max_segments = 2}).success);
  EXPECT_FALSE(alg::dp_route(idx, cs, {.max_segments = 1}).success);
  // Being identically segmented, the left-edge special case applies too.
  EXPECT_TRUE(alg::left_edge_route(idx, cs, 2).success);
}

TEST(Fixtures, Fig3SegmentInventoryMatchesThePaper) {
  const auto ch = fig3_channel();
  ASSERT_EQ(ch.num_tracks(), 3);
  EXPECT_EQ(ch.width(), 9);
  EXPECT_EQ(ch.track(0).num_segments(), 3);  // s11 s12 s13
  EXPECT_EQ(ch.track(1).num_segments(), 3);  // s21 s22 s23
  EXPECT_EQ(ch.track(2).num_segments(), 2);  // s31 s32
  const auto cs = fig3_connections();
  EXPECT_EQ(cs.size(), 5);
  EXPECT_TRUE(cs.is_sorted_by_left());
}

TEST(Fixtures, Fig3ProseConstraintOnC3) {
  // "Connection c3 would occupy segments s21 and s22 in track 2 or
  // segment s31 in track 3."
  const auto ch = fig3_channel();
  const auto cs = fig3_connections();
  const Connection& c3 = cs[2];
  EXPECT_EQ(ch.track(1).segments_spanned(c3.left, c3.right), 2);
  EXPECT_EQ(ch.track(1).span(c3.left, c3.right).first, 0);
  EXPECT_EQ(ch.track(2).segments_spanned(c3.left, c3.right), 1);
  EXPECT_EQ(ch.track(2).span(c3.left, c3.right).first, 0);
}

TEST(Fixtures, Fig3IsOneSegmentRoutable) {
  const auto ch = fig3_channel();
  const auto r = alg::greedy1_route(ChannelIndex(ch), fig3_connections());
  EXPECT_TRUE(r.success);
}

TEST(Fixtures, Fig4StandardInfeasibleGeneralizedFeasible) {
  const auto ch = fig4_channel();
  const ChannelIndex idx(ch);
  const auto cs = fig4_connections();
  EXPECT_EQ(ch.num_tracks(), 3);
  EXPECT_EQ(cs.size(), 7);
  EXPECT_LE(cs.density(), ch.num_tracks());  // not a trivial capacity fail
  EXPECT_FALSE(alg::dp_route(idx, cs).success);
  const auto g = alg::generalized_dp_route(idx, cs);
  ASSERT_TRUE(g.success);
  EXPECT_TRUE(validate(ch, cs, g.routing));
}

TEST(Fixtures, Fig8ChannelHasAtMostTwoSegmentsPerTrack) {
  const auto ch = fig8_channel();
  EXPECT_LE(ch.max_segments_per_track(), 2);
  EXPECT_EQ(ch.num_tracks(), 3);
}

TEST(Fixtures, Fig8C2RequiresTwoSegmentsEverywhere) {
  const auto ch = fig8_channel();
  const auto cs = fig8_connections();
  const Connection& c2 = cs[1];
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    EXPECT_EQ(ch.track(t).segments_spanned(c2.left, c2.right), 2)
        << "track " << t;
  }
}

TEST(Fixtures, Fig8RoutesUnderThePoolGreedy) {
  const auto r = alg::greedy2track_route(fig8_channel(), fig8_connections());
  EXPECT_TRUE(r.success);
}

TEST(Fixtures, Example1MatchesThePublishedNumbers) {
  const auto inst = example1_nmts();
  EXPECT_EQ(inst.n(), 3);
  EXPECT_EQ(inst.x(), (std::vector<std::int64_t>{2, 5, 8}));
  EXPECT_EQ(inst.y(), (std::vector<std::int64_t>{9, 11, 12}));
  EXPECT_EQ(inst.z(), (std::vector<std::int64_t>{11, 17, 19}));
  EXPECT_TRUE(inst.reduction_ready());
  EXPECT_TRUE(inst.solve().has_value());
}

}  // namespace
}  // namespace segroute::gen::fixtures
