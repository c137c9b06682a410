#include "alg/generalized_dp.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "alg/dp.h"
#include "gen/fixtures.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

SegmentedChannel random_channel(TrackId T, Column width, int max_cuts,
                                std::mt19937_64& rng) {
  std::vector<Track> tracks;
  for (TrackId t = 0; t < T; ++t) {
    std::set<Column> cuts;
    const int k = static_cast<int>(rng() % static_cast<unsigned>(max_cuts + 1));
    for (int i = 0; i < k; ++i) {
      cuts.insert(1 + static_cast<Column>(rng() % (width - 1)));
    }
    tracks.emplace_back(width, std::vector<Column>(cuts.begin(), cuts.end()));
  }
  return SegmentedChannel(std::move(tracks));
}

TEST(GeneralizedDp, Fig4NeedsGeneralizedRouting) {
  const auto ch = gen::fixtures::fig4_channel();
  const ChannelIndex idx(ch);
  const auto cs = gen::fixtures::fig4_connections();
  EXPECT_FALSE(dp_route(idx, cs).success);
  const auto g = generalized_dp_route(idx, cs);
  ASSERT_TRUE(g.success) << g.note;
  EXPECT_TRUE(validate(ch, cs, g.routing));
  // Some connection must actually change tracks, else the routing would
  // contradict the standard router's failure.
  int total_changes = 0;
  for (ConnId i = 0; i < cs.size(); ++i) {
    total_changes += g.routing.track_changes(i);
  }
  EXPECT_GT(total_changes, 0);
}

TEST(GeneralizedDp, SubsumesStandardRouting) {
  // Whenever a single-track routing exists, a generalized one does too.
  std::mt19937_64 rng(71);
  int std_yes = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const auto ch = random_channel(3, 12, 3, rng);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 4), 12, 3.5, rng);
    const bool std_ok = dp_route(idx, cs).success;
    const auto g = generalized_dp_route(idx, cs);
    if (std_ok) {
      ++std_yes;
      EXPECT_TRUE(g.success) << "iter " << iter;
    }
    if (g.success) {
      EXPECT_TRUE(validate(ch, cs, g.routing)) << "iter " << iter;
    }
  }
  EXPECT_GT(std_yes, 0);
}

TEST(GeneralizedDp, NoSwitchColumnsReducesToStandardFeasibility) {
  // With an empty allowed-switch-column set every connection must stay on
  // one track, so feasibility coincides with Definition-1 routing.
  std::mt19937_64 rng(72);
  GeneralizedDpOptions opts;
  opts.allowed_switch_columns = std::vector<Column>{};
  int agree_yes = 0, agree_no = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const auto ch = random_channel(3, 10, 3, rng);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 4), 10, 3.0, rng);
    const bool std_ok = dp_route(idx, cs).success;
    const auto g = generalized_dp_route(idx, cs, opts);
    ASSERT_EQ(std_ok, g.success) << "iter " << iter;
    (std_ok ? agree_yes : agree_no)++;
    if (g.success) {
      for (ConnId i = 0; i < cs.size(); ++i) {
        EXPECT_EQ(g.routing.track_changes(i), 0) << "iter " << iter;
      }
    }
  }
  EXPECT_GT(agree_yes, 0);
  EXPECT_GT(agree_no, 0);
}

TEST(GeneralizedDp, AllowedSwitchColumnsAreRespected) {
  const auto ch = gen::fixtures::fig4_channel();
  const ChannelIndex idx(ch);
  const auto cs = gen::fixtures::fig4_connections();
  // Allow switching everywhere: must succeed (same as unconstrained).
  GeneralizedDpOptions all;
  std::vector<Column> every;
  for (Column c = 1; c <= ch.width(); ++c) every.push_back(c);
  all.allowed_switch_columns = every;
  const auto g = generalized_dp_route(idx, cs, all);
  ASSERT_TRUE(g.success);
  // Restrict to a single column: every observed change must use it.
  for (Column allowed = 2; allowed <= ch.width(); ++allowed) {
    GeneralizedDpOptions one;
    one.allowed_switch_columns = std::vector<Column>{allowed};
    const auto r = generalized_dp_route(idx, cs, one);
    if (!r.success) continue;
    for (ConnId i = 0; i < cs.size(); ++i) {
      const auto& parts = r.routing.parts(i);
      for (std::size_t p = 1; p < parts.size(); ++p) {
        if (parts[p].track != parts[p - 1].track) {
          EXPECT_EQ(parts[p].left, allowed);
        }
      }
    }
  }
}

TEST(GeneralizedDp, SwitchOverlapVariantProducesJumperFriendlyRoutings) {
  // Variant 2: at a track change at column l, the old track's segment
  // must extend through l.
  std::mt19937_64 rng(73);
  GeneralizedDpOptions opts;
  opts.switch_requires_overlap = true;
  for (int iter = 0; iter < 40; ++iter) {
    const auto ch = random_channel(3, 10, 3, rng);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 4), 10, 3.0, rng);
    const auto r = generalized_dp_route(ChannelIndex(ch), cs, opts);
    if (!r.success) continue;
    EXPECT_TRUE(validate(ch, cs, r.routing)) << "iter " << iter;
    for (ConnId i = 0; i < cs.size(); ++i) {
      const auto& parts = r.routing.parts(i);
      for (std::size_t p = 1; p < parts.size(); ++p) {
        if (parts[p].track == parts[p - 1].track) continue;
        const Track& old_track = ch.track(parts[p - 1].track);
        const Column l = parts[p].left;
        EXPECT_GE(old_track.segment(old_track.segment_at(l - 1)).right, l)
            << "iter " << iter;
      }
    }
  }
}

TEST(GeneralizedDp, OverlapVariantIsBetweenStandardAndUnconstrained) {
  std::mt19937_64 rng(74);
  GeneralizedDpOptions overlap;
  overlap.switch_requires_overlap = true;
  for (int iter = 0; iter < 50; ++iter) {
    const auto ch = random_channel(3, 10, 3, rng);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(
        2 + static_cast<int>(rng() % 4), 10, 3.0, rng);
    const bool std_ok = dp_route(idx, cs).success;
    const bool ov_ok = generalized_dp_route(idx, cs, overlap).success;
    const bool gen_ok = generalized_dp_route(idx, cs).success;
    if (std_ok) {
      EXPECT_TRUE(ov_ok) << "iter " << iter;
    }
    if (ov_ok) {
      EXPECT_TRUE(gen_ok) << "iter " << iter;
    }
  }
}

TEST(GeneralizedDp, EmptyAndDegenerateInputs) {
  const auto ch = SegmentedChannel::identical(2, 5, {2});
  const ChannelIndex idx(ch);
  EXPECT_TRUE(generalized_dp_route(idx, ConnectionSet{}).success);
  ConnectionSet one;
  one.add(1, 1);
  const auto r = generalized_dp_route(idx, one);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(validate(ch, one, r.routing));
  ConnectionSet big;
  big.add(1, 9);
  EXPECT_FALSE(generalized_dp_route(idx, big).success);
}

TEST(GeneralizedDp, InfeasibleWhenDensityExceedsTracks) {
  const auto ch = SegmentedChannel::identical(2, 6, {3});
  ConnectionSet cs;
  cs.add(2, 4);
  cs.add(2, 4);
  cs.add(2, 4);
  const auto r = generalized_dp_route(ChannelIndex(ch), cs);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.note.empty());
}

TEST(GeneralizedDp, PartsAreNormalizedMaximalRuns) {
  const auto ch = gen::fixtures::fig4_channel();
  const auto cs = gen::fixtures::fig4_connections();
  const auto g = generalized_dp_route(ChannelIndex(ch), cs);
  ASSERT_TRUE(g.success);
  for (ConnId i = 0; i < cs.size(); ++i) {
    const auto& parts = g.routing.parts(i);
    for (std::size_t p = 1; p < parts.size(); ++p) {
      EXPECT_NE(parts[p].track, parts[p - 1].track)
          << "adjacent parts on the same track were not merged";
    }
  }
}

}  // namespace
}  // namespace segroute::alg
