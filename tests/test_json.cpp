#include "io/json.h"

#include <gtest/gtest.h>

#include "alg/dp.h"
#include "alg/generalized_dp.h"
#include "gen/fixtures.h"

namespace segroute::io {
namespace {

TEST(Json, ChannelEmitsWidthAndCuts) {
  const auto ch = SegmentedChannel({Track(9, {3, 6}), Track(9, {})});
  EXPECT_EQ(to_json(ch),
            "{\"width\": 9, \"tracks\": [[3, 6], []]}");
}

TEST(Json, ConnectionsWithAndWithoutNames) {
  ConnectionSet cs;
  cs.add(1, 4, "a");
  cs.add(5, 9);
  EXPECT_EQ(to_json(cs),
            "{\"connections\": [{\"left\": 1, \"right\": 4, \"name\": \"a\"}, "
            "{\"left\": 5, \"right\": 9}]}");
}

TEST(Json, RoutingUsesNullForUnassigned) {
  Routing r(3);
  r.assign(0, 2);
  r.assign(2, 0);
  EXPECT_EQ(to_json(r), "{\"assignments\": [2, null, 0]}");
}

TEST(Json, EscapingControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, GeneralizedRoutingEmitsParts) {
  GeneralizedRouting g(1);
  g.add_part(0, 1, 4, 0);
  g.add_part(0, 5, 8, 2);
  EXPECT_EQ(to_json(g),
            "{\"parts\": [[{\"left\": 1, \"right\": 4, \"track\": 0}, "
            "{\"left\": 5, \"right\": 8, \"track\": 2}]]}");
}

TEST(Json, RouteResultRoundTripsThroughTheFig3Example) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = alg::dp_route(ChannelIndex(ch), cs);
  const auto json = to_json(r);
  EXPECT_NE(json.find("\"success\": true"), std::string::npos);
  EXPECT_NE(json.find("\"assignments\": ["), std::string::npos);
  EXPECT_NE(json.find("\"max_level_nodes\": "), std::string::npos);
}

TEST(Json, UtilizationStats) {
  const auto ch = SegmentedChannel::identical(1, 9, {4});
  ConnectionSet cs;
  cs.add(1, 4);
  Routing r(1);
  r.assign(0, 0);
  const auto json = to_json(utilization(ch, cs, r));
  EXPECT_NE(json.find("\"occupied_columns\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"overhang\": 1"), std::string::npos);
}

TEST(Json, OutputsAreDeterministic) {
  const auto ch = gen::fixtures::fig4_channel();
  const auto cs = gen::fixtures::fig4_connections();
  const auto g = alg::generalized_dp_route(ChannelIndex(ch), cs);
  ASSERT_TRUE(g.success);
  EXPECT_EQ(to_json(g.routing), to_json(g.routing));
}

}  // namespace
}  // namespace segroute::io
