// Tests for the hardened routing harness: Budget/BudgetMeter, the
// independent RouteVerifier, fault injection, and the robust_route
// portfolio cascade (including the deadline-honoring acceptance test on a
// DP-hostile instance).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <set>

#include "alg/dp.h"
#include "alg/exhaustive.h"
#include "alg/greedy1.h"
#include "alg/lp_route.h"
#include "core/channel_index.h"
#include "core/routing.h"
#include "core/weights.h"
#include "gen/suite.h"
#include "gen/workload.h"
#include "harness/budget.h"
#include "harness/fault.h"
#include "harness/robust_route.h"
#include "harness/verify.h"

namespace segroute::harness {
namespace {

using alg::FailureKind;

// ---------------------------------------------------------------- Budget

TEST(Budget, UnlimitedNeverExhausts) {
  BudgetMeter m(Budget{});
  for (int i = 0; i < 10'000; ++i) ASSERT_TRUE(m.tick());
  EXPECT_FALSE(m.exhausted());
  EXPECT_EQ(m.stop(), BudgetStop::kNone);
  EXPECT_EQ(m.ticks(), 10'000u);
  EXPECT_TRUE(m.reason().empty());
}

TEST(Budget, TickCapIsExactAndSticky) {
  BudgetMeter m(Budget::with_ticks(100));
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(m.tick()) << i;
  EXPECT_FALSE(m.tick());
  EXPECT_EQ(m.stop(), BudgetStop::kTickLimit);
  EXPECT_FALSE(m.tick());  // sticky
  EXPECT_NE(m.reason().find("work limit"), std::string::npos);
}

TEST(Budget, BulkTicksCountAgainstTheCap) {
  BudgetMeter m(Budget::with_ticks(100));
  EXPECT_TRUE(m.tick(60));
  EXPECT_FALSE(m.tick(60));
  EXPECT_EQ(m.stop(), BudgetStop::kTickLimit);
}

TEST(Budget, ExpiredDeadlineStopsOnFirstTick) {
  BudgetMeter m(Budget::with_deadline(std::chrono::milliseconds(0)));
  EXPECT_FALSE(m.tick());
  EXPECT_EQ(m.stop(), BudgetStop::kDeadline);
  EXPECT_NE(m.reason().find("deadline"), std::string::npos);
}

TEST(Budget, CancellationIsObservedWithinOneInterval) {
  std::atomic<bool> cancel{false};
  BudgetMeter m(Budget::with_cancel(cancel), /*check_interval=*/8);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(m.tick());
  cancel.store(true);
  bool stopped = false;
  for (int i = 0; i < 8 && !stopped; ++i) stopped = !m.tick();
  EXPECT_TRUE(stopped);
  EXPECT_EQ(m.stop(), BudgetStop::kCancelled);
  cancel.store(false);
  EXPECT_FALSE(m.tick());  // sticky even after the flag clears
}

// ---------------------------------------------------------- RouteVerifier

// A 3-track channel: track 0 unsegmented, track 1 split at 6, track 2
// fully segmented — plus four short connections routed by the exact DP.
struct VerifierFixture {
  SegmentedChannel ch;
  ConnectionSet cs;

  VerifierFixture()
      : ch({Track(12, {}), Track(12, {6}), Track::fully_segmented(12)}) {
    cs.add(1, 5);
    cs.add(7, 12);
    cs.add(2, 9);
    cs.add(6, 6);
  }
};

TEST(RouteVerifier, AcceptsEveryExactRouting) {
  VerifierFixture f;
  const auto r = alg::dp_route(ChannelIndex(f.ch), f.cs);
  ASSERT_TRUE(r.success);
  const RouteVerifier v(f.ch, f.cs);
  const auto ok = v.check(r);
  EXPECT_TRUE(ok) << ok.detail;
  EXPECT_EQ(ok.error, VerifyError::kOk);
}

TEST(RouteVerifier, CatchesSeededOverlap) {
  VerifierFixture f;
  // Connections 0 (1-5) and 2 (2-9) on the same unsegmented track share
  // its single segment.
  Routing r(f.cs.size());
  r.assign(0, 0);
  r.assign(2, 0);
  r.assign(1, 1);
  r.assign(3, 2);
  const RouteVerifier v(f.ch, f.cs);
  const auto res = v.check(r);
  EXPECT_FALSE(res);
  EXPECT_EQ(res.error, VerifyError::kOverlap);
}

TEST(RouteVerifier, CatchesUncoveredSpan) {
  // A connection reaching past the channel width can never be covered.
  SegmentedChannel ch({Track(8, {})});
  ConnectionSet cs;
  cs.add(3, 11);
  Routing r(1);
  r.assign(0, 0);
  const auto res = RouteVerifier(ch, cs).check(r);
  EXPECT_FALSE(res);
  EXPECT_EQ(res.error, VerifyError::kUncoveredSpan);
}

TEST(RouteVerifier, CatchesSegmentLimitViolation) {
  VerifierFixture f;
  // Connection 2 (2-9) on the fully segmented track occupies 8 segments.
  Routing r(f.cs.size());
  r.assign(0, 0);
  r.assign(1, 1);
  r.assign(2, 2);
  r.assign(3, 1);
  VerifyOptions vo;
  vo.max_segments = 2;
  const auto res = RouteVerifier(f.ch, f.cs).check(r, vo);
  EXPECT_FALSE(res);
  EXPECT_EQ(res.error, VerifyError::kSegmentLimit);
}

TEST(RouteVerifier, CatchesMisreportedWeight) {
  VerifierFixture f;
  auto r = alg::dp_route(ChannelIndex(f.ch), f.cs,
                         {.weight = weights::occupied_length()});
  ASSERT_TRUE(r.success);
  const RouteVerifier v(f.ch, f.cs);
  VerifyOptions vo;
  vo.weight = weights::occupied_length();
  EXPECT_TRUE(v.check(r, vo));  // honest weight passes
  r.weight += 1.0;              // a router lying about its objective
  const auto res = v.check(r, vo);
  EXPECT_FALSE(res);
  EXPECT_EQ(res.error, VerifyError::kWeightMismatch);
}

TEST(RouteVerifier, CatchesShapeProblems) {
  VerifierFixture f;
  const RouteVerifier v(f.ch, f.cs);
  EXPECT_EQ(v.check(Routing(2)).error, VerifyError::kSizeMismatch);
  EXPECT_EQ(v.check(Routing(f.cs.size())).error, VerifyError::kIncomplete);
  Routing bad(f.cs.size());
  bad.assign(0, 7);  // only 3 tracks exist
  VerifyOptions partial;
  partial.require_complete = false;
  EXPECT_EQ(v.check(bad, partial).error, VerifyError::kBadTrack);
}

TEST(RouteVerifier, PartialRoutingsAllowedWhenRequested) {
  VerifierFixture f;
  Routing r(f.cs.size());
  r.assign(0, 0);
  VerifyOptions vo;
  vo.require_complete = false;
  EXPECT_TRUE(RouteVerifier(f.ch, f.cs).check(r, vo));
}

// --------------------------------------- exhaustive failure distinction

TEST(ExhaustiveFailureKinds, ProvenInfeasibleVsBudgetExhausted) {
  // One unsegmented track, two overlapping connections: provably
  // unroutable, and the tiny search completes.
  SegmentedChannel tiny = SegmentedChannel::unsegmented(1, 10);
  ConnectionSet clash;
  clash.add(1, 5);
  clash.add(3, 8);
  const auto infeasible = alg::exhaustive_route(tiny, clash);
  EXPECT_FALSE(infeasible.success);
  EXPECT_EQ(infeasible.failure, FailureKind::kInfeasible);

  // A routable instance with an absurd branch cap: the search is cut off
  // before it can conclude anything -> kBudgetExhausted, NOT kInfeasible.
  std::mt19937_64 rng(7);
  const auto ch = SegmentedChannel::identical(4, 20, {5, 10, 15});
  const auto cs = gen::routable_workload(ch, 10, 4.0, rng);
  ASSERT_GE(cs.size(), 6);
  alg::ExhaustiveOptions eo;
  eo.max_branches = 2;
  const auto cut = alg::exhaustive_route(ch, cs, eo);
  EXPECT_FALSE(cut.success);
  EXPECT_EQ(cut.failure, FailureKind::kBudgetExhausted);

  // Same distinction via a Budget tick cap.
  alg::ExhaustiveOptions bo;
  bo.budget = Budget::with_ticks(2);
  const auto ticked = alg::exhaustive_route(ch, cs, bo);
  EXPECT_FALSE(ticked.success);
  EXPECT_EQ(ticked.failure, FailureKind::kBudgetExhausted);
}

// -------------------------------------------------------- fault injection

TEST(FaultInjection, StuckClosedSwitchFusesSegments) {
  const auto ch = SegmentedChannel::identical(2, 8, {4});
  const auto out = apply(ch, {{Fault::Kind::kSwitchStuckClosed, 0, 4}});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->switches_fused, 1);
  EXPECT_EQ(out->tracks_lost, 0);
  EXPECT_EQ(out->channel.num_tracks(), 2);
  EXPECT_EQ(out->channel.track(0).num_segments(), 1);  // fused
  EXPECT_EQ(out->channel.track(1).num_segments(), 2);  // untouched
}

TEST(FaultInjection, DeadSegmentWithdrawsTheTrack) {
  const auto ch = SegmentedChannel::identical(3, 8, {4});
  const auto out = apply(ch, {{Fault::Kind::kSegmentDead, 1, 5}});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tracks_lost, 1);
  EXPECT_EQ(out->channel.num_tracks(), 2);
  ASSERT_EQ(out->kept_tracks.size(), 2u);
  EXPECT_EQ(out->kept_tracks[0], 0);
  EXPECT_EQ(out->kept_tracks[1], 2);
}

TEST(FaultInjection, TotalOutageYieldsNullopt) {
  const auto ch = SegmentedChannel::unsegmented(1, 8);
  EXPECT_FALSE(apply(ch, {{Fault::Kind::kSegmentDead, 0, 1}}).has_value());
}

TEST(FaultInjection, SamplingIsDeterministicAndProbabilityOneIsTotal) {
  const auto ch = SegmentedChannel::identical(4, 16, {4, 8, 12});
  FaultPlan plan;
  plan.switch_fail_prob = 0.5;
  plan.seed = 42;
  const auto a = plan.sample(ch);
  const auto b = plan.sample(ch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].track, b[i].track);
    EXPECT_EQ(a[i].column, b[i].column);
  }
  FaultPlan all;
  all.switch_fail_prob = 1.0;
  EXPECT_EQ(all.sample(ch).size(), 12u);  // every switch of every track
}

TEST(FaultInjection, AllTracksDeadIsATotalOutage) {
  const auto ch = SegmentedChannel::identical(3, 8, {4});
  EXPECT_FALSE(apply(ch, {{Fault::Kind::kSegmentDead, 0, 2},
                          {Fault::Kind::kSegmentDead, 1, 5},
                          {Fault::Kind::kSegmentDead, 2, 8}})
                   .has_value());
}

TEST(FaultInjection, FaultsAtTheLastColumnAreHandled) {
  const auto ch = SegmentedChannel::identical(2, 8, {4});
  // Column 8 is the channel's last column but not a switch position:
  // there is nothing to fuse, so canonicalisation drops the fault.
  EXPECT_TRUE(canonicalize(ch, {{Fault::Kind::kSwitchStuckClosed, 0, 8}})
                  .empty());
  const auto fused = apply(ch, {{Fault::Kind::kSwitchStuckClosed, 0, 8}});
  ASSERT_TRUE(fused.has_value());
  EXPECT_EQ(fused->switches_fused, 0);
  EXPECT_EQ(fused->channel.track(0).num_segments(), 2);

  // A dead segment AT the last column is in range and withdraws the track.
  const auto dead = apply(ch, {{Fault::Kind::kSegmentDead, 0, 8}});
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->tracks_lost, 1);
  ASSERT_EQ(dead->kept_tracks.size(), 1u);
  EXPECT_EQ(dead->kept_tracks[0], 1);

  // One past the last column is out of range: dropped, track survives.
  EXPECT_TRUE(canonicalize(ch, {{Fault::Kind::kSegmentDead, 0, 9}}).empty());
  const auto beyond = apply(ch, {{Fault::Kind::kSegmentDead, 0, 9}});
  ASSERT_TRUE(beyond.has_value());
  EXPECT_EQ(beyond->tracks_lost, 0);
  EXPECT_EQ(beyond->channel.num_tracks(), 2);
}

TEST(FaultInjection, StuckClosedOnSingleSegmentTrackIsDropped) {
  const auto ch = SegmentedChannel::unsegmented(1, 8);  // no switches at all
  EXPECT_TRUE(canonicalize(ch, {{Fault::Kind::kSwitchStuckClosed, 0, 4}})
                  .empty());
  const auto out = apply(ch, {{Fault::Kind::kSwitchStuckClosed, 0, 4}});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->switches_fused, 0);
  EXPECT_EQ(out->channel.track(0).num_segments(), 1);
}

TEST(FaultInjection, EmptyPlanRoundTripsBitIdentically) {
  const auto ch = SegmentedChannel::identical(3, 12, {4, 8});
  FaultPlan plan;  // both probabilities zero
  const auto faults = plan.sample(ch);
  EXPECT_TRUE(faults.empty());
  const auto out = harness::apply(ch, faults);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->switches_fused, 0);
  EXPECT_EQ(out->tracks_lost, 0);
  ASSERT_EQ(out->kept_tracks.size(), 3u);
  for (TrackId t = 0; t < 3; ++t) EXPECT_EQ(out->kept_tracks[t], t);
  // The surviving channel is structurally bit-identical to the original.
  EXPECT_EQ(ChannelIndex(ch).fingerprint(),
            ChannelIndex(out->channel).fingerprint());
}

TEST(FaultInjection, DuplicateFaultsCannotInflateTheCounters) {
  const auto ch = SegmentedChannel::identical(2, 8, {4});
  const std::vector<Fault> once = {{Fault::Kind::kSwitchStuckClosed, 0, 4}};
  const std::vector<Fault> thrice = {{Fault::Kind::kSwitchStuckClosed, 0, 4},
                                     {Fault::Kind::kSwitchStuckClosed, 0, 4},
                                     {Fault::Kind::kSwitchStuckClosed, 0, 4}};
  EXPECT_EQ(canonicalize(ch, thrice).size(), 1u);
  const auto a = harness::apply(ch, once);
  const auto b = harness::apply(ch, thrice);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->switches_fused, 1);
  EXPECT_EQ(b->switches_fused, 1);  // dedup: one physical defect
  EXPECT_EQ(a->channel.track(0).num_segments(),
            b->channel.track(0).num_segments());

  // Two dead-segment faults in the SAME segment are one defect; a
  // stuck-closed fault on a withdrawn track is not a distinct defect.
  const std::vector<Fault> overlapping = {
      {Fault::Kind::kSegmentDead, 0, 2},
      {Fault::Kind::kSegmentDead, 0, 3},  // same segment as column 2
      {Fault::Kind::kSwitchStuckClosed, 0, 4}};
  EXPECT_EQ(canonicalize(ch, overlapping).size(), 1u);
  const auto c = harness::apply(ch, overlapping);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->tracks_lost, 1);
  EXPECT_EQ(c->switches_fused, 0);
}

// ----------------------------------------------------------- robust_route

TEST(RobustRoute, RoutesEasyInstanceWithTheExactStage) {
  const auto ch = SegmentedChannel::identical(4, 12, {6});
  ConnectionSet cs;
  cs.add(1, 4);
  cs.add(8, 12);
  cs.add(2, 6);
  const auto rep = robust_route(ch, cs);
  ASSERT_TRUE(rep.success);
  EXPECT_EQ(rep.winner, "dp");
  ASSERT_FALSE(rep.stages.empty());
  EXPECT_TRUE(rep.stages.front().verified);
  EXPECT_TRUE(validate(ch, cs, rep.routing));
}

TEST(RobustRoute, ExactInfeasibilityProofStopsTheCascade) {
  SegmentedChannel ch = SegmentedChannel::unsegmented(1, 10);
  ConnectionSet cs;
  cs.add(1, 5);
  cs.add(3, 8);
  const auto rep = robust_route(ch, cs);
  EXPECT_FALSE(rep.success);
  EXPECT_EQ(rep.failure, FailureKind::kInfeasible);
  EXPECT_EQ(rep.stages.size(), 1u);  // dp proves it; nothing else runs
  EXPECT_EQ(rep.stages.front().router, "dp");
}

TEST(RobustRoute, OutOfEnvelopeStageReportsInvalidInput) {
  // greedy2track's capability envelope (<= 2 segments per track) is
  // violated: the registry dispatcher must surface a structured
  // kInvalidInput, never an exception.
  const auto ch = SegmentedChannel::identical(2, 12, {3, 6, 9});
  ConnectionSet cs;
  cs.add(1, 2);
  RobustOptions o;
  o.stages = {{"greedy2track", {}}};
  const auto rep = robust_route(ch, cs, o);
  EXPECT_FALSE(rep.success);
  EXPECT_EQ(rep.failure, FailureKind::kInvalidInput);
  ASSERT_EQ(rep.stages.size(), 1u);
  EXPECT_EQ(rep.stages.front().failure, FailureKind::kInvalidInput);
}

TEST(RobustRoute, OptimizingModeMatchesTheExactOptimum) {
  std::mt19937_64 rng(11);
  const auto ch = SegmentedChannel::identical(4, 16, {4, 8, 12});
  const auto cs = gen::routable_workload(ch, 8, 4.0, rng);
  ASSERT_GT(cs.size(), 0);
  RobustOptions o;
  o.weight = weights::occupied_length();
  const auto rep = robust_route(ch, cs, o);
  ASSERT_TRUE(rep.success);
  const auto exact = alg::dp_route(ChannelIndex(ch), cs,
                                   {.weight = weights::occupied_length()});
  ASSERT_TRUE(exact.success);
  EXPECT_NEAR(rep.weight, exact.weight, 1e-9);
}

TEST(RobustRoute, FaultInjectionForcesAVerifiedReroute) {
  const auto ch = SegmentedChannel::identical(4, 12, {6});
  ConnectionSet cs;
  cs.add(1, 4);
  cs.add(8, 12);
  RobustOptions o;
  o.faults = FaultPlan{/*switch_fail_prob=*/1.0, /*segment_fail_prob=*/0.0,
                       /*seed=*/3};
  const auto rep = robust_route(ch, cs, o);
  ASSERT_TRUE(rep.success);
  EXPECT_TRUE(rep.faults_applied);
  EXPECT_EQ(rep.switches_fused, 4);  // every track's switch fused
  // The degraded channel is unsegmented, so the two overlapping-free
  // connections must land on distinct tracks of the *original* channel.
  EXPECT_TRUE(validate(ch, cs, rep.routing));
}

TEST(RobustRoute, TotalOutageDegradesToStructuredFailure) {
  const auto ch = SegmentedChannel::identical(2, 8, {4});
  ConnectionSet cs;
  cs.add(1, 3);
  RobustOptions o;
  o.faults = FaultPlan{0.0, 1.0, 5};  // every segment dead
  const auto rep = robust_route(ch, cs, o);
  EXPECT_FALSE(rep.success);
  EXPECT_EQ(rep.failure, FailureKind::kInfeasible);
  EXPECT_EQ(rep.tracks_lost, 2);
  EXPECT_TRUE(rep.stages.empty());
}

// The acceptance test: a DP-hostile channel (every track segmented
// differently, defeating Theorem-7 type canonicalization) with a workload
// that is routable by construction with 1-segment assignments. The exact
// DP cannot finish within the deadline; the cascade must fall back to a
// verified heuristic routing and honor the 50 ms deadline within 2x.
TEST(RobustRoute, DeadlineHonoredWithGracefulFallback) {
  const Column width = 160;
  const TrackId T = 18;
  std::mt19937_64 rng(20260806);
  std::vector<Track> tracks;
  for (TrackId t = 0; t < T; ++t) {
    // Pairwise-distinct segmentations: offset-striped cuts. The raw DP
    // needs seconds on this instance (~1.4M assignment-graph nodes).
    std::set<Column> cuts;
    for (Column c = 2 + t, k = 0; c < width; c += 2 + ((t + k) % 4), ++k) {
      cuts.insert(c);
    }
    tracks.emplace_back(width, std::vector<Column>(cuts.begin(), cuts.end()));
  }
  const SegmentedChannel ch(std::move(tracks));
  // max_segments=1 guarantees a 1-segment witness: greedy1 will succeed.
  const auto cs = gen::routable_workload(ch, 120, 6.0, rng, /*max_segments=*/1);
  ASSERT_GE(cs.size(), 80);

  RobustOptions o;
  o.deadline = std::chrono::milliseconds(50);
  const auto t0 = std::chrono::steady_clock::now();
  const auto rep = robust_route(ch, cs, o);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();

  ASSERT_TRUE(rep.success) << rep.note;
  ASSERT_GE(rep.stages.size(), 2u);
  EXPECT_EQ(rep.stages.front().router, "dp");
  EXPECT_EQ(rep.stages.front().failure, FailureKind::kBudgetExhausted)
      << rep.stages.front().note;
  EXPECT_NE(rep.winner, "dp");
  // Deadline honored within 2x.
  EXPECT_LE(wall_ms, 100.0);
  // The fallback answer is independently verified and genuinely valid.
  EXPECT_TRUE(validate(ch, cs, rep.routing));
}

TEST(RobustRoute, CancellationShortCircuitsEveryStage) {
  const Column width = 96;
  const TrackId T = 14;
  std::mt19937_64 rng(99);
  std::vector<Track> tracks;
  for (TrackId t = 0; t < T; ++t) {
    std::set<Column> cuts;
    for (Column c = 2 + t; c < width; c += 3 + (t % 5)) cuts.insert(c);
    tracks.emplace_back(width, std::vector<Column>(cuts.begin(), cuts.end()));
  }
  const SegmentedChannel ch(std::move(tracks));
  const auto cs = gen::routable_workload(ch, 48, 5.0, rng);
  std::atomic<bool> cancel{true};  // pre-cancelled
  RobustOptions o;
  o.cancel = &cancel;
  const auto rep = robust_route(ch, cs, o);
  // The budgeted stages stop immediately; the un-budgeted 1-segment
  // stages may still answer — either way the call returns promptly and
  // any success is verified.
  for (const auto& s : rep.stages) {
    if (s.router == "dp") {
      EXPECT_EQ(s.failure, FailureKind::kBudgetExhausted);
    }
  }
}

// ---------------------------------------------- verification property

// Every successful router result across the frozen suite passes the
// independent verifier (and in optimizing mode, reports its true weight).
TEST(VerificationProperty, SuiteResultsAllPassIndependentVerification) {
  for (const auto& inst : gen::standard_suite()) {
    const ChannelIndex idx(inst.channel);
    const RouteVerifier v(inst.channel, inst.connections);
    const auto check_ok = [&](const alg::RouteResult& r, const char* who,
                              VerifyOptions vo = {}) {
      if (!r.success) return;
      const auto res = v.check(r, vo);
      EXPECT_TRUE(res) << inst.name << " / " << who << ": " << res.detail;
    };
    check_ok(alg::dp_route(idx, inst.connections), "dp");
    check_ok(alg::greedy1_route(idx, inst.connections), "greedy1");
    check_ok(alg::lp_route(inst.channel, inst.connections), "lp");
    VerifyOptions wo;
    wo.weight = weights::occupied_length();
    check_ok(alg::dp_route(idx, inst.connections, {.weight = wo.weight}),
             "dp-optimal", wo);
  }
}

}  // namespace
}  // namespace segroute::harness
