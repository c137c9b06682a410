#include "alg/online.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "alg/dp.h"
#include "gen/segmentation.h"
#include "gen/workload.h"

namespace segroute::alg {
namespace {

SegmentedChannel small_channel() {
  // t0: (1,4)(5,9); t1: (1,6)(7,9)
  return SegmentedChannel({Track(9, {4}), Track(9, {6})});
}

TEST(OnlineRouter, InsertPlacesAndSnapshotValidates) {
  OnlineRouter r(small_channel());
  const auto a = r.insert(1, 3, "a");
  const auto b = r.insert(5, 9, "b");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(r.num_placed(), 2);
  const auto [cs, routing] = r.snapshot();
  EXPECT_TRUE(validate(r.channel(), cs, routing));
}

TEST(OnlineRouter, BestFitPrefersTheSnuggerSegment) {
  OnlineRouter r(small_channel(), OnlineRouter::Policy::BestFit);
  const auto id = r.insert(1, 3);
  ASSERT_TRUE(id);
  EXPECT_EQ(r.track_of(*id), 0);  // segment (1,4) beats (1,6)
}

TEST(OnlineRouter, FirstFitTakesTheLowestTrack) {
  const auto ch = SegmentedChannel({Track(9, {6}), Track(9, {4})});
  OnlineRouter r(ch, OnlineRouter::Policy::FirstFit);
  const auto id = r.insert(1, 3);
  ASSERT_TRUE(id);
  EXPECT_EQ(r.track_of(*id), 0);  // even though track 1 is snugger
}

TEST(OnlineRouter, InsertFailsWhenFull) {
  OnlineRouter r(small_channel());
  ASSERT_TRUE(r.insert(1, 3));   // t0 (1,4)
  ASSERT_TRUE(r.insert(2, 4));   // t1 (1,6)
  EXPECT_FALSE(r.insert(3, 3).has_value());
  EXPECT_EQ(r.num_placed(), 2);
}

TEST(OnlineRouter, RemoveFreesCapacity) {
  OnlineRouter r(small_channel());
  const auto a = r.insert(1, 3);
  ASSERT_TRUE(r.insert(2, 4));
  ASSERT_FALSE(r.insert(3, 3));
  r.remove(*a);
  EXPECT_EQ(r.num_placed(), 1);
  EXPECT_FALSE(r.is_placed(*a));
  EXPECT_TRUE(r.insert(3, 3));
  EXPECT_FALSE(r.remove(*a));  // already removed: no-op, reports false
  EXPECT_EQ(r.track_of(*a), kNoTrack);
}

TEST(OnlineRouter, KSegmentLimitIsEnforced) {
  OnlineRouter r(small_channel(), OnlineRouter::Policy::BestFit,
                 /*max_segments=*/1);
  // (3,7) needs two segments in both tracks.
  EXPECT_FALSE(r.insert(3, 7).has_value());
  OnlineRouter loose(small_channel(), OnlineRouter::Policy::BestFit, 2);
  EXPECT_TRUE(loose.insert(3, 7).has_value());
}

TEST(OnlineRouter, InsertRejectsBadSpans) {
  OnlineRouter r(small_channel());
  EXPECT_FALSE(r.insert(0, 3).has_value());
  EXPECT_EQ(r.last_failure(), alg::FailureKind::kInvalidInput);
  EXPECT_FALSE(r.insert(3, 2).has_value());
  EXPECT_EQ(r.last_failure(), alg::FailureKind::kInvalidInput);
  EXPECT_FALSE(r.insert(3, 99).has_value());
  EXPECT_EQ(r.last_failure(), alg::FailureKind::kInvalidInput);
  EXPECT_EQ(r.num_placed(), 0);
}

TEST(OnlineRouter, RipupMovesASingleVictim) {
  // K = 1 scenario where rip-up is both necessary and sufficient.
  // t0: (1,4)(5,9); t1: (1,2)(3,9).
  const auto ch = SegmentedChannel({Track(9, {4}), Track(9, {2})});
  OnlineRouter r(ch, OnlineRouter::Policy::BestFit, /*max_segments=*/1);
  const auto victim = r.insert(3, 4);  // t0 (1,4) len 4 beats t1 (3,9) len 7
  ASSERT_TRUE(victim);
  ASSERT_EQ(r.track_of(*victim), 0);
  // New net (1,4): t0 (1,4) blocked; on t1 it would need two segments
  // (K = 1 forbids) -> plain insert fails; rip-up moves the victim to
  // t1 (3,9) and takes t0 (1,4).
  EXPECT_FALSE(r.insert(1, 4).has_value());
  const auto re = r.insert_with_ripup(1, 4);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ(r.track_of(*re), 0);
  EXPECT_EQ(r.track_of(*victim), 1);
  const auto [cs, routing] = r.snapshot();
  EXPECT_TRUE(validate(r.channel(), cs, routing, 1));
}

TEST(OnlineRouter, RipupFailsAtomicallyWhenVictimHasNoHome) {
  // Same channel, but t1's big segment is pre-filled: the victim has
  // nowhere to go, so rip-up must fail and leave the state untouched.
  const auto ch = SegmentedChannel({Track(9, {4}), Track(9, {2})});
  OnlineRouter r(ch, OnlineRouter::Policy::BestFit, /*max_segments=*/1);
  const auto victim = r.insert(3, 4);            // t0 (1,4)
  const auto filler = r.insert(5, 9, "filler");  // t0 (5,9) len 5 < t1 (3,9) 7
  ASSERT_TRUE(victim && filler);
  ASSERT_EQ(r.track_of(*filler), 0);
  ASSERT_TRUE(r.insert(3, 9, "big"));  // t1 (3,9)
  EXPECT_FALSE(r.insert_with_ripup(1, 4).has_value());
  // Everything still where it was, and the state is valid.
  EXPECT_EQ(r.track_of(*victim), 0);
  EXPECT_EQ(r.num_placed(), 3);
  const auto [cs, routing] = r.snapshot();
  EXPECT_TRUE(validate(r.channel(), cs, routing, 1));
}

TEST(OnlineRouter, RerouteTightensAfterRemovals) {
  const auto ch = SegmentedChannel({Track(9, {}), Track(9, {4})});
  OnlineRouter r(ch);
  const auto snug = r.insert(1, 3);   // -> t1 (1,4)
  const auto moved = r.insert(2, 4);  // t1 blocked -> t0 (1,9)
  ASSERT_TRUE(snug && moved);
  ASSERT_EQ(r.track_of(*moved), 0);
  r.remove(*snug);
  EXPECT_EQ(r.reroute(*moved), 1);  // better home is now free
  EXPECT_EQ(r.track_of(*moved), 1);
}

TEST(OnlineRouter, RandomizedSessionsStayValid) {
  std::mt19937_64 rng(161);
  for (int iter = 0; iter < 20; ++iter) {
    OnlineRouter r(gen::staggered_segmentation(4, 24, 6));
    std::vector<ConnId> placed;
    for (int step = 0; step < 60; ++step) {
      if (!placed.empty() && rng() % 3 == 0) {
        const std::size_t k = rng() % placed.size();
        r.remove(placed[k]);
        placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        const Column l = 1 + static_cast<Column>(rng() % 24);
        const Column len = 1 + static_cast<Column>(rng() % 8);
        const auto id =
            r.insert_with_ripup(l, std::min<Column>(24, l + len - 1));
        if (id) placed.push_back(*id);
      }
      const auto [cs, routing] = r.snapshot();
      ASSERT_TRUE(validate(r.channel(), cs, routing))
          << "iter " << iter << " step " << step;
      ASSERT_EQ(cs.size(), static_cast<ConnId>(placed.size()));
    }
  }
}

TEST(OnlineRouter, IdsStayStableAcrossRemovalsFuzz) {
  // Long mixed sessions over both API generations: connection ids must
  // never move or be reused while live, dead ids must stay dead, and
  // last_failure() must read kNone after every successful mutation.
  std::mt19937_64 rng(4099);
  for (int iter = 0; iter < 10; ++iter) {
    OnlineRouter r(gen::staggered_segmentation(4, 24, 6));
    std::map<ConnId, std::pair<Column, Column>> live;  // id -> span
    std::vector<ConnId> dead;
    const auto rand_span = [&]() -> std::pair<Column, Column> {
      const Column l = 1 + static_cast<Column>(rng() % 24);
      const Column len = 1 + static_cast<Column>(rng() % 6);
      return {l, std::min<Column>(24, l + len - 1)};
    };
    const auto pick_live = [&]() -> ConnId {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % live.size()));
      return it->first;
    };
    for (int step = 0; step < 120; ++step) {
      std::uint64_t op = rng() % 5;
      if (live.empty()) op = 0;
      if (op == 0 || op == 1) {
        const auto [l, rt] = rand_span();
        const auto id = op == 0 ? r.insert(l, rt) : r.insert_with_ripup(l, rt);
        if (id) {
          ASSERT_EQ(live.count(*id), 0u) << "live id reused";
          live[*id] = {l, rt};
          EXPECT_EQ(r.last_failure(), FailureKind::kNone);
        }
      } else if (op == 2) {
        const ConnId id = pick_live();
        ASSERT_TRUE(r.remove(id));
        EXPECT_EQ(r.last_failure(), FailureKind::kNone);
        live.erase(id);
        dead.push_back(id);
      } else if (op == 3) {
        const auto [l, rt] = rand_span();
        const ConnId id = pick_live();
        const RepairOutcome out = r.apply(ChannelEdit::move(id, l, rt));
        if (out.success) {
          live[id] = {l, rt};
          EXPECT_EQ(r.last_failure(), FailureKind::kNone);
        }
      } else {
        const auto [l, rt] = rand_span();
        const RepairOutcome out = r.apply(ChannelEdit::add(l, rt));
        if (out.success) {
          ASSERT_EQ(live.count(out.id), 0u) << "live id reused";
          live[out.id] = {l, rt};
          EXPECT_EQ(r.last_failure(), FailureKind::kNone);
        }
      }
      // Id stability: every live id still carries its recorded span;
      // every dead id is still dead (ids are never recycled).
      for (const auto& [id, span] : live) {
        ASSERT_TRUE(r.is_placed(id)) << "iter " << iter << " step " << step;
        EXPECT_EQ(r.connection(id).left, span.first);
        EXPECT_EQ(r.connection(id).right, span.second);
      }
      for (const ConnId id : dead) {
        EXPECT_FALSE(r.is_placed(id));
        EXPECT_EQ(r.track_of(id), kNoTrack);
      }
      ASSERT_EQ(r.num_placed(), static_cast<int>(live.size()));
    }
  }
}

TEST(OnlineRouter, OnlineNeverBeatsTheBatchOracle) {
  // If the online first-fit places all of a workload, the DP surely can;
  // the converse may fail (online is not exact) — assert the implication
  // only.
  std::mt19937_64 rng(162);
  for (int iter = 0; iter < 30; ++iter) {
    const auto ch = gen::staggered_segmentation(3, 20, 5);
    const ChannelIndex idx(ch);
    const auto cs = gen::geometric_workload(6, 20, 4.0, rng);
    OnlineRouter r(ch);
    bool all = true;
    for (const Connection& c : cs.all()) {
      if (!r.insert(c.left, c.right)) all = false;
    }
    if (all) {
      EXPECT_TRUE(dp_route(idx, cs).success) << "iter " << iter;
    }
  }
}

}  // namespace
}  // namespace segroute::alg
