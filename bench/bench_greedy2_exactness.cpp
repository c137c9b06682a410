// E9 (Theorem 4): on channels with at most two segments per track, the
// pool greedy routes iff a routing exists. Sweep over channel load,
// cross-checking the DP oracle, and report the success-rate curve.
#include <iostream>
#include <random>

#include "segroute.h"

using namespace segroute;

int main() {
  std::mt19937_64 rng(909);
  const Column width = 24;
  const TrackId tracks = 5;
  const int trials = 60;

  std::cout << "E9 / Theorem 4 — pool greedy vs DP oracle on <=2-segment "
               "tracks (T = " << tracks << ", N = " << width << ")\n\n";

  io::Table t({"M", "routable (oracle)", "greedy agrees", "disagreements"});
  for (int m : {4, 6, 8, 10, 12, 14}) {
    int routable = 0, agree = 0, disagree = 0;
    for (int i = 0; i < trials; ++i) {
      std::vector<Track> trs;
      for (TrackId k = 0; k < tracks; ++k) {
        if (rng() % 5 == 0) {
          trs.push_back(Track::unsegmented(width));
        } else {
          trs.emplace_back(width, std::vector<Column>{static_cast<Column>(
                                      1 + rng() % (width - 1))});
        }
      }
      const SegmentedChannel ch(std::move(trs));
      const auto cs = gen::geometric_workload(m, width, 6.0, rng);
      const bool oracle = alg::dp_route(ChannelIndex(ch), cs).success;
      const bool greedy = alg::greedy2track_route(ch, cs).success;
      if (oracle) ++routable;
      if (oracle == greedy) ++agree; else ++disagree;
    }
    t.add_row({io::Table::num(m),
               io::Table::num(100.0 * routable / trials, 0) + "%",
               io::Table::num(100.0 * agree / trials, 0) + "%",
               io::Table::num(disagree)});
  }
  std::cout << t.str()
            << "\nShape check (Theorem 4): zero disagreements at every "
               "load level.\n";
  return 0;
}
