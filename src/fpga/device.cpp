#include "fpga/device.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "alg/dp.h"

namespace segroute::fpga {

GlobalRoute global_route(const DeviceSpec& dev, const Netlist& nl,
                         const Placement& p) {
  if (p.rows != dev.rows || p.slots_per_row != dev.slots_per_row) {
    throw std::invalid_argument("global_route: placement grid != device grid");
  }
  struct Trunk {
    int net = 0;
    Column left = 0, right = 0;
    int row_lo = 0, row_hi = 0;
  };
  std::vector<Trunk> trunks;
  trunks.reserve(static_cast<std::size_t>(nl.num_nets()));
  for (int i = 0; i < nl.num_nets(); ++i) {
    const CellNet& net = nl.net(i);
    Trunk t;
    t.net = i;
    t.left = dev.columns();
    t.right = 1;
    t.row_lo = dev.rows;
    t.row_hi = 0;
    for (int c : net.cells) {
      const Column col = dev.pin_column(p.slot_of(c));
      t.left = std::min(t.left, col);
      t.right = std::max(t.right, col);
      t.row_lo = std::min(t.row_lo, p.row_of(c));
      t.row_hi = std::max(t.row_hi, p.row_of(c));
    }
    trunks.push_back(t);
  }
  // Longest trunks first: they have the fewest good homes.
  std::sort(trunks.begin(), trunks.end(), [](const Trunk& a, const Trunk& b) {
    return (a.right - a.left) > (b.right - b.left);
  });

  // Column load per channel for congestion-aware assignment.
  std::vector<std::vector<int>> load(
      static_cast<std::size_t>(dev.num_channels()),
      std::vector<int>(static_cast<std::size_t>(dev.columns()) + 1, 0));

  GlobalRoute gr;
  gr.channel_of_net.assign(static_cast<std::size_t>(nl.num_nets()), -1);
  gr.per_channel.assign(static_cast<std::size_t>(dev.num_channels()), {});
  gr.net_of_conn.assign(static_cast<std::size_t>(dev.num_channels()), {});

  for (const Trunk& t : trunks) {
    // Channels adjacent to the net's row range: row r touches channels r
    // (above) and r+1 (below).
    int best_ch = t.row_lo;
    int best_peak = std::numeric_limits<int>::max();
    for (int ch = t.row_lo; ch <= t.row_hi + 1; ++ch) {
      int peak = 0;
      for (Column c = t.left; c <= t.right; ++c) {
        peak = std::max(peak, load[static_cast<std::size_t>(ch)]
                                  [static_cast<std::size_t>(c)]);
      }
      if (peak < best_peak) {
        best_peak = peak;
        best_ch = ch;
      }
    }
    for (Column c = t.left; c <= t.right; ++c) {
      ++load[static_cast<std::size_t>(best_ch)][static_cast<std::size_t>(c)];
    }
    gr.channel_of_net[static_cast<std::size_t>(t.net)] = best_ch;
    gr.per_channel[static_cast<std::size_t>(best_ch)].add(
        t.left, t.right, nl.net(t.net).name);
    gr.net_of_conn[static_cast<std::size_t>(best_ch)].push_back(t.net);
  }
  return gr;
}

std::vector<ChannelReport> route_device(
    const DeviceSpec& dev, const GlobalRoute& gr,
    const std::function<SegmentedChannel(int, Column)>& make_channel,
    int track_limit, const DelayParams& delay_params) {
  std::vector<ChannelReport> reports;
  for (int ch = 0; ch < dev.num_channels(); ++ch) {
    const ConnectionSet& cs = gr.per_channel[static_cast<std::size_t>(ch)];
    ChannelReport rep;
    rep.channel = ch;
    rep.connections = cs.size();
    rep.density = cs.density();
    if (cs.empty()) {
      rep.tracks_used = 0;
      reports.push_back(rep);
      continue;
    }
    for (int t = std::max(1, rep.density); t <= track_limit; ++t) {
      const auto channel = make_channel(t, dev.columns());
      const auto r = alg::dp_route(ChannelIndex(channel), cs);
      if (r.success) {
        rep.tracks_used = t;
        rep.delay = routing_delay(channel, cs, r.routing, delay_params);
        break;
      }
    }
    reports.push_back(rep);
  }
  return reports;
}

}  // namespace segroute::fpga
