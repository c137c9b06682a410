#include <gtest/gtest.h>

#include "alg/dp.h"
#include "alg/generalized_dp.h"
#include "core/stats.h"
#include "gen/fixtures.h"
#include "io/svg.h"

namespace segroute {
namespace {

TEST(Utilization, ExactFitRoutingHasOverhangOne) {
  const auto ch = SegmentedChannel::identical(1, 9, {4});
  ConnectionSet cs;
  cs.add(1, 4);
  cs.add(5, 9);
  Routing r(2);
  r.assign(0, 0);
  r.assign(1, 0);
  const auto st = utilization(ch, cs, r);
  EXPECT_EQ(st.total_segments, 2);
  EXPECT_EQ(st.occupied_segments, 2);
  EXPECT_EQ(st.total_columns, 9);
  EXPECT_EQ(st.occupied_columns, 9);
  EXPECT_EQ(st.demanded_columns, 9);
  EXPECT_EQ(st.tracks_touched, 1);
  EXPECT_DOUBLE_EQ(st.overhang(), 1.0);
  EXPECT_DOUBLE_EQ(st.wire_utilization(), 1.0);
}

TEST(Utilization, SloppyFitShowsOverhang) {
  const auto ch = SegmentedChannel::identical(2, 10, {});
  ConnectionSet cs;
  cs.add(1, 2);  // 2 demanded columns occupy a 10-column segment
  Routing r(1);
  r.assign(0, 1);
  const auto st = utilization(ch, cs, r);
  EXPECT_EQ(st.occupied_columns, 10);
  EXPECT_EQ(st.demanded_columns, 2);
  EXPECT_DOUBLE_EQ(st.overhang(), 5.0);
  EXPECT_DOUBLE_EQ(st.wire_utilization(), 0.5);
  EXPECT_EQ(st.tracks_touched, 1);
}

TEST(Utilization, PartialRoutingCountsOnlyAssigned) {
  const auto ch = SegmentedChannel::identical(2, 10, {5});
  ConnectionSet cs;
  cs.add(1, 5);
  cs.add(6, 10);
  Routing r(2);
  r.assign(0, 0);
  const auto st = utilization(ch, cs, r);
  EXPECT_EQ(st.occupied_segments, 1);
  EXPECT_EQ(st.demanded_columns, 5);
}

TEST(Utilization, SharedSegmentNotDoubleCounted) {
  // Two nets in different segments of the same track.
  const auto ch = SegmentedChannel::identical(1, 8, {4});
  ConnectionSet cs;
  cs.add(1, 3);
  cs.add(5, 8);
  Routing r(2);
  r.assign(0, 0);
  r.assign(1, 0);
  const auto st = utilization(ch, cs, r);
  EXPECT_EQ(st.occupied_segments, 2);
  EXPECT_EQ(st.occupied_columns, 8);
  EXPECT_EQ(st.tracks_touched, 1);
}

TEST(Utilization, RejectsBadInput) {
  const auto ch = SegmentedChannel::identical(1, 4, {});
  ConnectionSet cs;
  cs.add(1, 2);
  EXPECT_THROW(utilization(ch, cs, Routing(2)), std::invalid_argument);
  Routing bad(1);
  bad.assign(0, 7);
  EXPECT_THROW(utilization(ch, cs, bad), std::invalid_argument);
}

TEST(Svg, ChannelRenderingHasTracksAndSwitches) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto svg = io::to_svg(ch);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // 3 track labels and at least one switch circle.
  EXPECT_NE(svg.find(">t1<"), std::string::npos);
  EXPECT_NE(svg.find(">t3<"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
}

TEST(Svg, RoutedRenderingColorsSegments) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = alg::dp_route(ChannelIndex(ch), cs);
  ASSERT_TRUE(r.success);
  const auto without = io::to_svg(ch, cs);
  const auto with = io::to_svg(ch, cs, &r.routing);
  EXPECT_GT(with.size(), without.size());  // extra colored bars
  EXPECT_NE(with.find("stroke-linecap=\"round\""), std::string::npos);
  EXPECT_NE(with.find("c1"), std::string::npos);  // connection label
}

TEST(Svg, GeneralizedRenderingCoversParts) {
  const auto ch = gen::fixtures::fig4_channel();
  const auto cs = gen::fixtures::fig4_connections();
  const auto g = alg::generalized_dp_route(ChannelIndex(ch), cs);
  ASSERT_TRUE(g.success);
  const auto svg = io::to_svg(ch, cs, g.routing);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("stroke-linecap=\"round\""), std::string::npos);
}

TEST(Svg, LabelsCanBeDisabled) {
  const auto ch = gen::fixtures::fig3_channel();
  io::SvgOptions o;
  o.show_labels = false;
  EXPECT_EQ(io::to_svg(ch, o).find("<text"), std::string::npos);
}

}  // namespace
}  // namespace segroute
