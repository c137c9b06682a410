// Designing a segmented channel for a workload — the engineering loop the
// paper's introduction motivates (and its companion papers [10], [11]
// study): sample the net-length distribution, choose a segmentation, and
// measure how many extra tracks the segmented channel needs over the
// freely-customized (conventional) channel.
//
// Run:  ./build/examples/channel_design
#include <iostream>
#include <random>

#include "segroute.h"

using namespace segroute;

namespace {

/// Smallest T such that `make(T)` routes `nets`, found by linear scan.
template <typename MakeChannel>
int min_tracks(const ConnectionSet& nets, int limit, MakeChannel make) {
  for (int t = std::max(1, nets.density()); t <= limit; ++t) {
    const SegmentedChannel ch = make(t);
    if (alg::dp_route(ChannelIndex(ch), nets).success) return t;
  }
  return -1;
}

}  // namespace

int main() {
  std::mt19937_64 rng(2026);
  const Column width = 48;

  // Sample workloads drawn from the stochastic model of [9]: geometric
  // net lengths with mean 6.
  std::vector<ConnectionSet> samples;
  for (int s = 0; s < 8; ++s) {
    samples.push_back(gen::geometric_workload(24, width, 6.0, rng));
  }

  // The workload we actually have to route.
  const auto nets = gen::geometric_workload(24, width, 6.0, rng);
  std::cout << "Workload: M = " << nets.size()
            << ", density = " << nets.density() << "\n\n";

  io::Table table({"segmentation", "tracks needed", "extra over density"});
  const int density = nets.density();
  const int limit = 4 * density + 8;

  const int uniform = min_tracks(nets, limit, [&](int t) {
    return gen::uniform_segmentation(t, width, 8);
  });
  table.add_row({"uniform len 8", io::Table::num(uniform),
                 io::Table::num(uniform - density)});

  const int staggered = min_tracks(nets, limit, [&](int t) {
    return gen::staggered_segmentation(t, width, 8);
  });
  table.add_row({"staggered len 8", io::Table::num(staggered),
                 io::Table::num(staggered - density)});

  const int designed = min_tracks(nets, limit, [&](int t) {
    return gen::design_segmentation(t, width, samples);
  });
  table.add_row({"designed (quantile)", io::Table::num(designed),
                 io::Table::num(designed - density)});

  const int unsegmented = min_tracks(nets, static_cast<int>(nets.size()),
                                     [&](int t) {
    return SegmentedChannel::unsegmented(t, width);
  });
  table.add_row({"unsegmented (Fig 2d)", io::Table::num(unsegmented),
                 io::Table::num(unsegmented - density)});

  table.add_row({"freely customized (Fig 2b)", io::Table::num(density),
                 io::Table::num(0)});

  std::cout << table.str()
            << "\nA well-designed segmented channel needs only a few tracks "
               "more than the freely customized one ([10], [11]).\n";
  return 0;
}
