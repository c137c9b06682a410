// Quickstart: build a segmented channel, route a handful of connections
// with the assignment-graph DP router, and print the result.
//
// Run:  ./build/examples/quickstart
#include <iostream>

#include "segroute.h"

using namespace segroute;

int main() {
  // A channel of four tracks over 16 columns. Tracks 1-2 are cut every
  // four columns; tracks 3-4 every eight. (Fig. 2(e)/(f) spirit: short
  // segments for short nets, long segments for long nets.)
  const SegmentedChannel channel({
      Track(16, {4, 8, 12}),
      Track(16, {4, 8, 12}),
      Track(16, {8}),
      Track(16, {8}),
  });

  // Six two-terminal connections (columns are 1-based, ends inclusive).
  ConnectionSet nets;
  nets.add(1, 4, "n1");
  nets.add(2, 7, "n2");
  nets.add(5, 8, "n3");
  nets.add(6, 14, "n4");
  nets.add(9, 12, "n5");
  nets.add(13, 16, "n6");

  std::cout << "Connections:\n" << io::render(nets, channel.width()) << "\n";
  std::cout << "Channel:\n" << io::render(channel) << "\n";

  // Every router reads the channel through one prebuilt index.
  const ChannelIndex index(channel);

  // Problem 1: any routing.
  const auto any = alg::dp_route(index, nets);
  if (!any) {
    std::cout << "No routing exists: " << any.note << "\n";
    return 1;
  }
  std::cout << "A routing (Problem 1):\n"
            << io::render(channel, nets, any.routing) << "\n";

  // Problem 2: at most two segments per connection.
  const auto two_seg = alg::dp_route(index, nets, {.max_segments = 2});
  std::cout << "2-segment routing exists? " << (two_seg ? "yes" : "no")
            << "\n";

  // Problem 3: minimize total occupied wire length.
  const auto optimal =
      alg::dp_route(index, nets, {.weight = weights::occupied_length()});
  std::cout << "Minimum total occupied length: " << optimal.weight << "\n"
            << io::render(channel, nets, optimal.routing);

  // Always re-check a routing before using it downstream.
  const auto verdict = validate(channel, nets, optimal.routing);
  std::cout << "validated: " << (verdict ? "ok" : verdict.error) << "\n";
  return 0;
}
