// E13 (Problem 3 / Fig. 7): optimal routing cross-check. On 1-segment
// instances, the DP-with-weights optimum must equal the Hungarian
// matching optimum; across weight functions, the optimizers trade wire
// for switches exactly as the definitions predict.
#include <iostream>
#include <cmath>
#include <random>

#include "segroute.h"

using namespace segroute;

int main() {
  std::mt19937_64 rng(1313);
  std::cout << "E13 / Problem 3 — optimal routing: DP vs bipartite "
               "matching, and weight-function behaviour\n\n";

  {
    io::Table t({"trial set", "instances", "all three route",
                 "DP == matching", "LP within jitter"});
    const int trials = 60;
    int all3 = 0, dp_match = 0, lp_close = 0, total = 0;
    const auto w = weights::occupied_length();
    for (int i = 0; i < trials; ++i) {
      const auto ch = gen::staggered_segmentation(4, 20, 5);
      const ChannelIndex idx(ch);
      const auto cs = gen::geometric_workload(
          3 + static_cast<int>(rng() % 5), 20, 4.0, rng);
      alg::DpOptions o;
      o.max_segments = 1;
      o.weight = w;
      const auto dp = alg::dp_route(idx, cs, o);
      const auto hung = alg::match1_route_optimal(idx, cs, w);
      alg::LpRouteOptions lo;
      lo.max_segments = 1;
      const auto lp = alg::lp_route_optimal(ch, cs, w, lo);
      ++total;
      if (dp.success && hung.success && lp.success) {
        ++all3;
        if (std::abs(dp.weight - hung.weight) < 1e-9) ++dp_match;
        if (std::abs(lp.weight - dp.weight) < 0.5) ++lp_close;
      }
    }
    t.add_row({"K=1, occupied length", io::Table::num(total),
               io::Table::num(all3), io::Table::num(dp_match),
               io::Table::num(lp_close)});
    std::cout << "DP (K = 1) vs Hungarian matching (Fig. 7) vs LP "
                 "(Problem-3 extension of IV-C):\n"
              << t.str() << "\n";
  }

  {
    // Weight functions steer the optimum differently on the same instance.
    std::cout << "Weight-function comparison on one seeded instance:\n";
    const auto ch = SegmentedChannel({
        Track(24, {6, 12, 18}),
        Track(24, {6, 12, 18}),
        Track(24, {12}),
        Track(24, {12}),
    });
    const ChannelIndex idx(ch);
    const auto cs = gen::routable_workload(ch, 8, 6.0, rng);
    io::Table t({"objective", "total weight", "sum occupied length",
                 "sum segments"});
    for (const auto& [name, w] :
         std::vector<std::pair<std::string, WeightFn>>{
             {"occupied length", weights::occupied_length()},
             {"segment count", weights::segment_count()},
             {"wasted length", weights::wasted_length()}}) {
      const auto r = alg::dp_route(idx, cs, {.weight = w});
      if (!r.success) continue;
      t.add_row({name, io::Table::num(r.weight, 1),
                 io::Table::num(total_weight(ch, cs, r.routing,
                                             weights::occupied_length()),
                                1),
                 io::Table::num(total_weight(ch, cs, r.routing,
                                             weights::segment_count()),
                                1)});
    }
    std::cout << t.str() << "\n";
  }

  std::cout << "Shape check: the two optimal 1-segment routers agree "
               "exactly on every instance; minimizing segments yields <= "
               "segment totals of the other objectives, minimizing length "
               "yields <= length totals.\n";
  return 0;
}
