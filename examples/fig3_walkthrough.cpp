// The paper's running example (Fig. 3): a 3-track, 9-column segmented
// channel and five connections, routed by every algorithm the paper
// develops for it — the 1-segment greedy (Theorem 3), the bipartite
// matching formulation (Fig. 7), the LP heuristic (Section IV-C), and the
// general assignment-graph DP (Section IV-B).
//
// Run:  ./build/examples/fig3_walkthrough
#include <iostream>

#include "segroute.h"

using namespace segroute;

int main() {
  const auto channel = gen::fixtures::fig3_channel();
  const auto nets = gen::fixtures::fig3_connections();

  std::cout << "Fig. 3 channel (segments s11..s13 / s21..s23 / s31, s32):\n"
            << io::render(channel) << "\n"
            << "Connections c1..c5:\n"
            << io::render(nets, channel.width()) << "\n";

  // Every router reads the channel through one prebuilt index.
  const ChannelIndex index(channel);

  // 1-segment greedy (Theorem 3): exact for K = 1.
  alg::Greedy1Trace trace;
  const auto greedy = alg::greedy1_route_traced(index, nets, &trace);
  std::cout << "1-segment greedy (Theorem 3): "
            << (greedy ? "routed" : greedy.note) << "\n";
  for (ConnId i = 0; i < nets.size(); ++i) {
    std::cout << "  " << nets[i].name << " -> s"
              << (greedy.routing.track_of(i) + 1)
              << (trace.segment_of[static_cast<std::size_t>(i)] + 1) << "\n";
  }
  std::cout << io::render(channel, nets, greedy.routing) << "\n";

  // Optimal 1-segment routing via weighted bipartite matching (Fig. 7).
  const auto matched =
      alg::match1_route_optimal(index, nets, weights::occupied_length());
  std::cout << "Min-weight matching (Fig. 7): total occupied length = "
            << matched.weight << "\n";

  // The general DP router; also report assignment-graph statistics.
  const auto dp = alg::dp_route(index, nets);
  std::cout << "Assignment-graph DP: " << (dp ? "routed" : dp.note)
            << "; nodes per level:";
  for (std::size_t n : dp.stats.nodes_per_level) std::cout << ' ' << n;
  std::cout << "\n";

  // The LP heuristic.
  const auto lp = alg::lp_route(channel, nets);
  std::cout << "LP heuristic: " << (lp ? "routed" : lp.note)
            << " (relaxation objective " << lp.stats.lp_objective
            << ", integral=" << (lp.stats.lp_integral ? "yes" : "no")
            << ")\n";
  return 0;
}
