// The Section III / Appendix propositions assert structure that EVERY
// valid routing of the constructed instances must exhibit. We verify
// them on routings produced three different ways: the Lemma-1
// construction, the DP router, and (small cases) the LP heuristic.
#include "npc/propositions.h"

#include <gtest/gtest.h>

#include <random>

#include "alg/dp.h"
#include "alg/lp_route.h"
#include "gen/fixtures.h"

namespace segroute::npc {
namespace {

TEST(Propositions, HoldOnTheLemma1RoutingOfExample1) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q = build_unlimited(inst);
  const auto sol = inst.solve();
  ASSERT_TRUE(sol.has_value());
  const auto r = routing_from_matching(q, inst, *sol);
  ASSERT_TRUE(validate(q.channel, q.connections, r));
  EXPECT_TRUE(check_proposition1(q, r)) << check_proposition1(q, r).violation;
  EXPECT_TRUE(check_proposition3_10(q, inst, r))
      << check_proposition3_10(q, inst, r).violation;
  EXPECT_TRUE(check_lemma2_structure(q, inst, r))
      << check_lemma2_structure(q, inst, r).violation;
}

TEST(Propositions, HoldOnDpRoutingsOfRandomInstances) {
  std::mt19937_64 rng(191);
  for (int iter = 0; iter < 8; ++iter) {
    const int n = 2 + iter % 2;
    const auto inst = random_solvable_nmts(n, rng).normalized();
    const auto q = build_unlimited(inst);
    const auto dp = alg::dp_route(ChannelIndex(q.channel), q.connections);
    ASSERT_TRUE(dp.success) << "iter " << iter;
    EXPECT_TRUE(check_proposition1(q, dp.routing)) << "iter " << iter;
    EXPECT_TRUE(check_proposition3_10(q, inst, dp.routing))
        << "iter " << iter << ": "
        << check_proposition3_10(q, inst, dp.routing).violation;
    EXPECT_TRUE(check_lemma2_structure(q, inst, dp.routing))
        << "iter " << iter << ": "
        << check_lemma2_structure(q, inst, dp.routing).violation;
  }
}

TEST(Propositions, HoldOnLpRoutingsOfExample1) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q = build_unlimited(inst);
  const auto lp = alg::lp_route(q.channel, q.connections);
  if (!lp.success) GTEST_SKIP() << "LP heuristic failed on Q: " << lp.note;
  ASSERT_TRUE(validate(q.channel, q.connections, lp.routing));
  EXPECT_TRUE(check_proposition1(q, lp.routing));
  EXPECT_TRUE(check_lemma2_structure(q, inst, lp.routing));
}

TEST(Propositions, Proposition12HoldsOnAppendixRoutings) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q2 = build_two_segment(inst);
  const auto sol = inst.solve();
  ASSERT_TRUE(sol.has_value());
  const auto r = routing_from_matching_two_segment(q2, inst, *sol);
  ASSERT_TRUE(validate(q2.channel, q2.connections, r, 2));
  EXPECT_TRUE(check_proposition12(q2, r))
      << check_proposition12(q2, r).violation;
}

TEST(Propositions, Proposition12HoldsOnDpRoutingsOfQ2) {
  std::mt19937_64 rng(192);
  const auto inst = random_solvable_nmts(2, rng).normalized();
  const auto q2 = build_two_segment(inst);
  const auto dp = alg::dp_route(ChannelIndex(q2.channel), q2.connections,
                                {.max_segments = 2});
  ASSERT_TRUE(dp.success);
  EXPECT_TRUE(check_proposition12(q2, dp.routing))
      << check_proposition12(q2, dp.routing).violation;
}

TEST(Propositions, CheckersDetectViolations) {
  const auto inst = gen::fixtures::example1_nmts();
  const auto q = build_unlimited(inst);
  const auto sol = inst.solve();
  auto r = routing_from_matching(q, inst, *sol);
  // Swap an e onto a z-track (invalid routing, but the checker looks at
  // structure only).
  r.assign(q.e[0], 0);
  EXPECT_FALSE(check_proposition1(q, r));
  // Put two b's on one track.
  auto r2 = routing_from_matching(q, inst, *sol);
  r2.assign(q.b[0][0], r2.track_of(q.b[1][1]));
  EXPECT_FALSE(check_proposition3_10(q, inst, r2));
}

}  // namespace
}  // namespace segroute::npc
