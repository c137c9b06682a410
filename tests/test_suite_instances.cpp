// The standard suite's pinned expectations, re-derived with the exact
// routers: any library change that alters an answer trips these.
#include "gen/suite.h"

#include <gtest/gtest.h>

#include <set>

#include "alg/dp.h"
#include "core/routing.h"

namespace segroute::gen {
namespace {

TEST(Suite, HasTenDistinctNamedInstances) {
  const auto suite = standard_suite();
  ASSERT_EQ(suite.size(), 10u);
  std::set<std::string> names;
  for (const auto& inst : suite) {
    EXPECT_TRUE(names.insert(inst.name).second) << inst.name;
    EXPECT_FALSE(inst.description.empty());
    EXPECT_GT(inst.connections.size(), 0);
  }
}

TEST(Suite, RoutabilityPinsMatchTheDpRouter) {
  for (const auto& inst : standard_suite()) {
    EXPECT_EQ(
        alg::dp_route(ChannelIndex(inst.channel), inst.connections).success,
        inst.routable)
        << inst.name;
  }
}

TEST(Suite, MinKPinsAreExact) {
  for (const auto& inst : standard_suite()) {
    const ChannelIndex idx(inst.channel);
    if (!inst.routable) {
      EXPECT_EQ(inst.min_k, 0) << inst.name;
      continue;
    }
    ASSERT_GE(inst.min_k, 1) << inst.name;
    EXPECT_TRUE(
        alg::dp_route(idx, inst.connections, {.max_segments = inst.min_k})
            .success)
        << inst.name;
    if (inst.min_k > 1) {
      EXPECT_FALSE(alg::dp_route(idx, inst.connections,
                                 {.max_segments = inst.min_k - 1})
                       .success)
          << inst.name;
    }
  }
}

TEST(Suite, OptimalLengthPinsMatchProblem3) {
  for (const auto& inst : standard_suite()) {
    if (!inst.routable) continue;
    const auto r = alg::dp_route(ChannelIndex(inst.channel), inst.connections,
                                 {.weight = weights::occupied_length()});
    ASSERT_TRUE(r.success) << inst.name;
    EXPECT_NEAR(r.weight, inst.optimal_length, 1e-9) << inst.name;
  }
}

TEST(Suite, LookupByName) {
  const auto inst = suite_instance("fig3");
  EXPECT_EQ(inst.name, "fig3");
  EXPECT_THROW(suite_instance("no-such-instance"), std::invalid_argument);
}

TEST(Suite, MixesRoutableAndUnroutableInstances) {
  int yes = 0, no = 0;
  for (const auto& inst : standard_suite()) {
    (inst.routable ? yes : no)++;
  }
  EXPECT_GE(yes, 4);
  EXPECT_GE(no, 3);
}

}  // namespace
}  // namespace segroute::gen
