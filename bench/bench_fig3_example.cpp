// E2 (Fig. 3 + Section IV-A): the running example. Regenerates the
// 1-segment greedy's assignment sequence and cross-checks every routing
// algorithm on the same instance.
#include <iostream>

#include "segroute.h"

using namespace segroute;

int main() {
  const auto ch = gen::fixtures::fig3_channel();
  const ChannelIndex idx(ch);
  const auto cs = gen::fixtures::fig3_connections();
  std::cout << "E2 / Fig. 3 — the paper's running example (T = 3, N = 9, "
               "M = 5)\n\n"
            << io::render(ch) << "\n"
            << io::render(cs, ch.width()) << "\n";

  alg::Greedy1Trace trace;
  const auto greedy = alg::greedy1_route_traced(idx, cs, &trace);

  io::Table t({"connection", "greedy segment", "segment right end"});
  for (ConnId i = 0; i < cs.size(); ++i) {
    const TrackId tr = greedy.routing.track_of(i);
    const SegId sg = trace.segment_of[static_cast<std::size_t>(i)];
    std::string seg = "s";
    seg += std::to_string(tr + 1);
    seg += std::to_string(sg + 1);
    t.add_row({cs[i].name, seg,
               io::Table::num(ch.track(tr).segment(sg).right)});
  }
  std::cout << t.str() << "\n" << io::render(ch, cs, greedy.routing) << "\n";

  io::Table x({"algorithm", "routes?", "weight (occupied length)"});
  const auto w = weights::occupied_length();
  const auto add = [&](const std::string& name, const alg::RouteResult& r) {
    x.add_row({name, r.success ? "yes" : "no",
               r.success ? io::Table::num(total_weight(ch, cs, r.routing, w))
                         : "-"});
  };
  add("greedy 1-segment (Thm 3)", greedy);
  add("matching, min weight (Fig 7)",
      alg::match1_route_optimal(idx, cs, w));
  add("assignment-graph DP (IV-B)", alg::dp_route(idx, cs));
  add("DP, optimal (Problem 3)", alg::dp_route(idx, cs, {.weight = w}));
  add("LP heuristic (IV-C)", alg::lp_route(ch, cs));
  std::cout << x.str()
            << "\nShape check: all algorithms route the example; the two "
               "optimizers agree on the minimum weight.\n";
  return 0;
}
