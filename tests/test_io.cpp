#include "io/render.h"
#include "io/table.h"
#include "io/text.h"

#include <gtest/gtest.h>

#include <sstream>

#include "alg/dp.h"
#include "gen/fixtures.h"

namespace segroute::io {
namespace {

TEST(TextIo, ChannelRoundTrip) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto text = to_text(ch);
  const auto back = parse_channel(text);
  ASSERT_EQ(back.num_tracks(), ch.num_tracks());
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    EXPECT_EQ(back.track(t), ch.track(t));
  }
}

TEST(TextIo, ConnectionsRoundTrip) {
  const auto cs = gen::fixtures::fig3_connections();
  const auto back = parse_connections(to_text(cs));
  ASSERT_EQ(back.size(), cs.size());
  for (ConnId i = 0; i < cs.size(); ++i) {
    EXPECT_EQ(back[i], cs[i]);
    EXPECT_EQ(back[i].name, cs[i].name);
  }
}

TEST(TextIo, CombinedDocumentParsesSectionBySection) {
  const auto doc = to_text(gen::fixtures::fig3_channel()) +
                   to_text(gen::fixtures::fig3_connections());
  std::istringstream in(doc);
  const auto ch = parse_channel(in);
  const auto cs = parse_connections(in);
  EXPECT_EQ(ch.num_tracks(), 3);
  EXPECT_EQ(cs.size(), 5);
}

TEST(TextIo, CommentsAndBlankLinesAreSkipped) {
  const auto ch = parse_channel(
      "# a comment\n\nchannel 9\n  # another\ntrack 3 6\ntrack\n");
  EXPECT_EQ(ch.num_tracks(), 2);
  EXPECT_EQ(ch.track(0).num_segments(), 3);
  EXPECT_EQ(ch.track(1).num_segments(), 1);
}

TEST(TextIo, MalformedInputThrows) {
  EXPECT_THROW(parse_channel(""), std::invalid_argument);
  EXPECT_THROW(parse_channel("track 3\n"), std::invalid_argument);
  EXPECT_THROW(parse_channel("channel 0\ntrack\n"), std::invalid_argument);
  EXPECT_THROW(parse_channel("channel 9\n"), std::invalid_argument);
  EXPECT_THROW(parse_connections("conn 1 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_connections("connections\nconn 1\n"),
               std::invalid_argument);
}

TEST(TextIo, RoutingSerialization) {
  Routing r(3);
  r.assign(0, 2);
  r.assign(2, 0);
  const auto text = to_text(r);
  EXPECT_NE(text.find("assign 0 2"), std::string::npos);
  EXPECT_NE(text.find("assign 2 0"), std::string::npos);
  EXPECT_EQ(text.find("assign 1"), std::string::npos);
}

TEST(Render, ChannelShowsSwitchesBetweenSegments) {
  const auto ch = SegmentedChannel({Track(4, {2})});
  const auto art = render(ch);
  // Segments (1,2)(3,4): cells at columns 2 and 3 are separated by 'o'.
  EXPECT_NE(art.find("- -o- -"), std::string::npos);
}

TEST(Render, RoutedChannelLabelsOccupiedSegments) {
  const auto ch = gen::fixtures::fig3_channel();
  const auto cs = gen::fixtures::fig3_connections();
  const auto r = alg::dp_route(ChannelIndex(ch), cs);
  ASSERT_TRUE(r.success);
  const auto art = render(ch, cs, r.routing);
  // Every connection label must appear somewhere.
  for (char label : {'1', '2', '3', '4', '5'}) {
    EXPECT_NE(art.find(label), std::string::npos) << label;
  }
}

TEST(Render, ConnectionListShowsEndpoints) {
  const auto cs = gen::fixtures::fig2_connections();
  const auto art = render(cs, 9);
  EXPECT_NE(art.find("c1"), std::string::npos);
  EXPECT_NE(art.find('|'), std::string::npos);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5)});
  t.add_row({"b", Table::num(std::int64_t{42})});
  const auto s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

}  // namespace
}  // namespace segroute::io
