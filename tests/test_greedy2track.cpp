#include "alg/greedy2track.h"

#include <gtest/gtest.h>

#include <random>

#include "alg/dp.h"
#include "core/routing.h"
#include "gen/fixtures.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

TEST(Greedy2Track, ReproducesTheFig8Trace) {
  const auto ch = gen::fixtures::fig8_channel();
  const auto cs = gen::fixtures::fig8_connections();
  std::vector<Greedy2Event> ev;
  const auto r = greedy2track_route(ch, cs, &ev);
  ASSERT_TRUE(r.success) << r.note;
  EXPECT_TRUE(validate(ch, cs, r.routing));

  // Narrated run: c1 placed on t1; c2 pooled; c3 placed (tie t2/t3);
  // pool flush gives c2 the remaining unoccupied track; c4 placed last.
  ASSERT_EQ(ev.size(), 5u);
  EXPECT_EQ(ev[0].kind, Greedy2Event::Kind::AssignedSegment);
  EXPECT_EQ(ev[0].conn, 0);
  EXPECT_EQ(ev[0].track, 0);
  EXPECT_EQ(ev[1].kind, Greedy2Event::Kind::Pooled);
  EXPECT_EQ(ev[1].conn, 1);
  EXPECT_EQ(ev[2].kind, Greedy2Event::Kind::AssignedSegment);
  EXPECT_EQ(ev[2].conn, 2);
  EXPECT_EQ(ev[2].track, 1);  // lowest-index tie break
  EXPECT_EQ(ev[3].kind, Greedy2Event::Kind::PoolFlushed);
  ASSERT_EQ(ev[3].flushed.size(), 1u);
  EXPECT_EQ(ev[3].flushed[0].first, 1);
  EXPECT_EQ(ev[3].flushed[0].second, 2);  // the only unoccupied track
  EXPECT_EQ(ev[4].kind, Greedy2Event::Kind::AssignedSegment);
  EXPECT_EQ(ev[4].conn, 3);
  EXPECT_EQ(ev[4].track, 0);
}

TEST(Greedy2Track, MoreThanTwoSegmentsPerTrackIsInvalidInput) {
  const auto ch = SegmentedChannel::identical(2, 9, {3, 6});
  ConnectionSet cs;
  cs.add(1, 2);
  const auto r = greedy2track_route(ch, cs);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureKind::kInvalidInput);
  EXPECT_FALSE(r.note.empty());
}

TEST(Greedy2Track, Theorem4ExactnessAgainstDp) {
  // On channels with at most two segments per track, the greedy finds a
  // routing iff one exists (DP is the oracle).
  std::mt19937_64 rng(41);
  int successes = 0, failures = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Column width = 16;
    std::vector<Track> tracks;
    const int T = 3 + static_cast<int>(rng() % 3);
    for (int t = 0; t < T; ++t) {
      if (rng() % 4 == 0) {
        tracks.push_back(Track::unsegmented(width));
      } else {
        tracks.emplace_back(width,
                            std::vector<Column>{static_cast<Column>(
                                1 + rng() % (width - 1))});
      }
    }
    const SegmentedChannel ch(std::move(tracks));
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % (2 * T)), width, 5.0, rng);
    const bool greedy_ok = greedy2track_route(ch, cs).success;
    const bool oracle_ok = dp_route(ChannelIndex(ch), cs).success;
    EXPECT_EQ(greedy_ok, oracle_ok) << "iter " << iter;
    (greedy_ok ? successes : failures)++;
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(failures, 0);
}

TEST(Greedy2Track, PoolOverflowFailsEarly) {
  // Two nets that each need a whole track, one track available.
  const auto ch = SegmentedChannel({Track(9, {4})});
  ConnectionSet cs;
  cs.add(2, 6, "p1");  // crosses the switch in the only track
  cs.add(3, 7, "p2");
  const auto r = greedy2track_route(ch, cs);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.note.find("pool"), std::string::npos);
}

TEST(Greedy2Track, FinalPoolAssignmentAtEndOfInput) {
  // One pooled net, plenty of spare tracks: flushed after the loop.
  const auto ch = SegmentedChannel::identical(3, 9, {4});
  ConnectionSet cs;
  cs.add(2, 6, "whole");
  std::vector<Greedy2Event> ev;
  const auto r = greedy2track_route(ch, cs, &ev);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[1].kind, Greedy2Event::Kind::FinalPoolAssign);
  EXPECT_TRUE(validate(ch, cs, r.routing));
}

TEST(Greedy2Track, SingleSegmentPlacementPrefersSmallestRightEnd) {
  const auto ch = SegmentedChannel({Track(9, {6}), Track(9, {4})});
  ConnectionSet cs;
  cs.add(1, 3);
  const auto r = greedy2track_route(ch, cs);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.routing.track_of(0), 1);
}

TEST(Greedy2Track, EmptyInputSucceeds) {
  const auto ch = SegmentedChannel::identical(2, 5, {2});
  EXPECT_TRUE(greedy2track_route(ch, ConnectionSet{}).success);
}

TEST(Greedy2Track, UnsegmentedChannelReducesToWholeTrackAssignment) {
  const auto ch = SegmentedChannel::unsegmented(3, 9);
  ConnectionSet cs;
  cs.add(1, 3);
  cs.add(2, 5);
  cs.add(4, 9);
  const auto r = greedy2track_route(ch, cs);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(validate(ch, cs, r.routing));
  ConnectionSet four;
  four.add(1, 3);
  four.add(2, 5);
  four.add(4, 9);
  four.add(5, 6);
  EXPECT_FALSE(greedy2track_route(ch, four).success);
}

}  // namespace
}  // namespace segroute::alg
