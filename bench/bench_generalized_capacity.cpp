// E11 (Section V / Theorem 8): how much routing capacity does generalized
// routing (track changing) add over single-track routing on tight random
// channels, and how does the extended assignment graph grow?
#include <iostream>
#include <random>
#include <set>

#include "segroute.h"

using namespace segroute;

namespace {

SegmentedChannel random_channel(TrackId T, Column width, int max_cuts,
                                std::mt19937_64& rng) {
  std::vector<Track> tracks;
  for (TrackId t = 0; t < T; ++t) {
    std::set<Column> cuts;
    const int k = 1 + static_cast<int>(rng() % static_cast<unsigned>(max_cuts));
    for (int i = 0; i < k; ++i) {
      cuts.insert(1 + static_cast<Column>(rng() % (width - 1)));
    }
    tracks.emplace_back(width, std::vector<Column>(cuts.begin(), cuts.end()));
  }
  return SegmentedChannel(std::move(tracks));
}

}  // namespace

int main() {
  std::mt19937_64 rng(1111);
  const Column width = 10;
  const TrackId tracks = 3;
  const int trials = 120;

  std::cout << "E11 / Section V — capacity gain from generalized routing "
               "(T = " << tracks << ", N = " << width << ", " << trials
            << " trials per row)\n\n";

  // Unconditional sweep: generalized >= standard everywhere.
  io::Table t({"M", "standard routable", "generalized routable",
               "overlap-variant routable", "max graph L"});
  for (int m : {3, 4, 5, 6, 7}) {
    int std_ok = 0, gen_ok = 0, overlap_ok = 0;
    std::size_t worst_nodes = 0;
    for (int i = 0; i < trials; ++i) {
      const auto ch = random_channel(tracks, width, 3, rng);
      const ChannelIndex idx(ch);
      const auto cs = gen::geometric_workload(m, width, 3.5, rng);
      const bool s = alg::dp_route(idx, cs).success;
      const auto g = alg::generalized_dp_route(idx, cs);
      alg::GeneralizedDpOptions ov;
      ov.switch_requires_overlap = true;
      const bool o = alg::generalized_dp_route(idx, cs, ov).success;
      if (s) ++std_ok;
      if (g.success) ++gen_ok;
      if (o) ++overlap_ok;
      worst_nodes = std::max(worst_nodes, g.stats.max_level_nodes);
    }
    t.add_row({io::Table::num(m),
               io::Table::num(100.0 * std_ok / trials, 0) + "%",
               io::Table::num(100.0 * gen_ok / trials, 0) + "%",
               io::Table::num(100.0 * overlap_ok / trials, 0) + "%",
               io::Table::num(std::uint64_t{worst_nodes})});
  }
  std::cout << t.str() << "\n";

  // Conditional recovery rate: among instances where single-track routing
  // FAILS although the density fits the channel (the only candidates a
  // smarter router could save), how many does track changing recover?
  io::Table r({"M", "hard instances sampled", "recovered by generalized",
               "recovered by overlap variant"});
  std::mt19937_64 rng2(2222);
  for (int m : {5, 6, 7}) {
    const int want = 60;
    int sampled = 0, rec_gen = 0, rec_ov = 0;
    for (int i = 0; i < 30000 && sampled < want; ++i) {
      const auto ch = random_channel(tracks, width, 3, rng2);
      const ChannelIndex idx(ch);
      const auto cs = gen::geometric_workload(m, width, 3.5, rng2);
      if (cs.density() > tracks) continue;
      if (alg::dp_route(idx, cs).success) continue;
      ++sampled;
      if (alg::generalized_dp_route(idx, cs).success) {
        ++rec_gen;
        alg::GeneralizedDpOptions ov;
        ov.switch_requires_overlap = true;
        if (alg::generalized_dp_route(idx, cs, ov).success) ++rec_ov;
      }
    }
    r.add_row({io::Table::num(m), io::Table::num(sampled),
               io::Table::num(sampled ? 100.0 * rec_gen / sampled : 0.0, 1) + "%",
               io::Table::num(sampled ? 100.0 * rec_ov / sampled : 0.0, 1) + "%"});
  }
  std::cout << "Recovery on density-feasible instances that standard "
               "routing cannot route (Fig. 4's situation):\n"
            << r.str()
            << "\nShape check (paper): generalized routing never loses to "
               "standard routing; it does recover hard instances (Fig. 4 is "
               "one), but only a small fraction — most single-track failures "
               "are capacity failures, not segment-alignment failures, which "
               "is consistent with the paper presenting generalized routing "
               "as a preliminary capacity lever with real hardware cost. The "
               "overlap variant recovers a subset; the level width stays far "
               "below the O(T^(T+1)) worst case.\n";
  return 0;
}
