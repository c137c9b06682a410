#include "fpga/delay.h"

#include <gtest/gtest.h>

#include "alg/dp.h"
#include "gen/fixtures.h"

namespace segroute::fpga {
namespace {

TEST(Delay, MoreJoinedSegmentsMeansMoreDelayAtEqualLength) {
  // Same net length and wire capacitance; the segmented path pays for its
  // extra series switches (the paper's Fig. 2(c) objection).
  const SegmentedChannel ch({Track(12, {}), Track(12, {4, 8})});
  const Connection c{1, 12, "full"};
  const double one_seg = connection_delay(ch, c, 0);
  const double three_seg = connection_delay(ch, c, 1);
  EXPECT_GT(three_seg, one_seg);
}

TEST(Delay, LongerSegmentMeansMoreDelayAtEqualSwitchCount) {
  // Same switch count; the oversized segment pays for extra capacitance
  // (the Fig. 2(d) objection).
  const SegmentedChannel ch({Track(24, {4}), Track(24, {})});
  const Connection c{1, 3, "short"};
  const double snug = connection_delay(ch, c, 0);   // 4-column segment
  const double sloppy = connection_delay(ch, c, 1);  // 24-column track
  EXPECT_GT(sloppy, snug);
}

TEST(Delay, FullySegmentedIsWorstForLongNets) {
  const Column width = 16;
  const SegmentedChannel ch({
      Track::unsegmented(width),
      Track::fully_segmented(width),
      Track(width, {8}),
  });
  const Connection c{1, width, "span"};
  const double continuous = connection_delay(ch, c, 0);
  const double fully = connection_delay(ch, c, 1);
  const double two = connection_delay(ch, c, 2);
  EXPECT_GT(fully, two);
  EXPECT_GT(two, continuous);  // same wire, more switches
}

TEST(Delay, SwitchResistanceScalesTheSegmentationPenalty) {
  const SegmentedChannel ch({Track(12, {4, 8})});
  const Connection c{1, 12, ""};
  DelayParams cheap;
  cheap.r_switch = 0.1;
  DelayParams pricey;
  pricey.r_switch = 10.0;
  EXPECT_GT(connection_delay(ch, c, 0, pricey),
            connection_delay(ch, c, 0, cheap));
}

TEST(Delay, GeneralizedRouteChargesTwoSwitchesPerTrackChange) {
  const SegmentedChannel ch({Track(12, {6}), Track(12, {6})});
  const Connection c{1, 12, ""};
  // Single-track route: both segments of track 0.
  const double single = connection_delay(ch, c, 0);
  // Track-changing route covering the same wire: (1,6)@t0 + (7,12)@t1.
  const std::vector<RoutePart> parts = {{1, 6, 0}, {7, 12, 1}};
  const double split = connection_delay(ch, c, parts);
  EXPECT_GT(split, single);
  EXPECT_THROW(connection_delay(ch, c, std::vector<RoutePart>{}),
               std::invalid_argument);
}

TEST(Delay, RoutingDelayAggregates) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = alg::dp_route(ChannelIndex(ch), cs);
  ASSERT_TRUE(r.success);
  const auto st = routing_delay(ch, cs, r.routing);
  EXPECT_GT(st.max_delay, 0.0);
  EXPECT_GT(st.mean_delay, 0.0);
  EXPECT_LE(st.mean_delay, st.max_delay);
  EXPECT_GT(st.total_wire, 0.0);
  EXPECT_GE(st.max_switches, 2);  // at least entry + exit
}

TEST(Delay, RoutingDelayRejectsIncompleteRoutings) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  Routing incomplete(cs.size());
  EXPECT_THROW(routing_delay(ch, cs, incomplete), std::invalid_argument);
  Routing wrong(1);
  EXPECT_THROW(routing_delay(ch, cs, wrong), std::invalid_argument);
}

TEST(Delay, EmptyRoutingHasZeroStats) {
  const auto ch = SegmentedChannel::unsegmented(1, 4);
  const auto st = routing_delay(ch, ConnectionSet{}, Routing(0));
  EXPECT_EQ(st.max_delay, 0.0);
  EXPECT_EQ(st.total_wire, 0.0);
}

}  // namespace
}  // namespace segroute::fpga
