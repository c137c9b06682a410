// E8 — runtime scaling microbenchmarks (google-benchmark) backing the
// paper's complexity claims:
//   greedy 1-segment:  O(M*T)
//   DP (fixed T):      linear in M (Section IV-B)
//   DP vs K:           grows with (K+1)^T, so small K is much cheaper
//   matching router:   polynomial (Hungarian O(V^3))
//   LP heuristic:      ordinary LP via simplex
#include <benchmark/benchmark.h>

#include <random>

#include "segroute.h"

using namespace segroute;

namespace {

struct Instance {
  SegmentedChannel ch;
  ConnectionSet cs;
};

Instance make_instance(TrackId tracks, Column width, int m,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto ch = gen::staggered_segmentation(tracks, width, std::max<Column>(2, width / 6));
  auto cs = gen::routable_workload(ch, m, width / 8.0, rng);
  return Instance{std::move(ch), std::move(cs)};
}

void BM_Greedy1_VsM(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto inst = make_instance(8, 64, m, 42);
  const ChannelIndex idx(inst.ch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg::greedy1_route(idx, inst.cs));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_Greedy1_VsM)->RangeMultiplier(2)->Range(8, 64)->Complexity();

void BM_DpUnlimited_VsM(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto inst = make_instance(6, 96, m, 43);
  const ChannelIndex idx(inst.ch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg::dp_route(idx, inst.cs));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_DpUnlimited_VsM)->RangeMultiplier(2)->Range(8, 64)->Complexity();

void BM_DpUnlimited_VsT(benchmark::State& state) {
  const TrackId t = static_cast<TrackId>(state.range(0));
  const auto inst = make_instance(t, 64, 3 * t, 44);
  const ChannelIndex idx(inst.ch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg::dp_route(idx, inst.cs));
  }
}
BENCHMARK(BM_DpUnlimited_VsT)->DenseRange(2, 10, 2);

void BM_DpKSegment_VsK(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto inst = make_instance(6, 96, 36, 45);
  const ChannelIndex idx(inst.ch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg::dp_route(idx, inst.cs, {.max_segments = k}));
  }
}
BENCHMARK(BM_DpKSegment_VsK)->DenseRange(1, 5, 1);

void BM_DpCanonicalization(benchmark::State& state) {
  // Theorem 7's situation: many tracks of only two segmentation types, so
  // canonicalization can merge same-type frontier permutations.
  const bool canon = state.range(0) != 0;
  std::mt19937_64 rng(46);
  std::vector<Track> tracks;
  for (int t = 0; t < 8; ++t) {
    tracks.push_back(t % 2 == 0 ? Track(64, {10, 20, 30, 40, 50, 60})
                                : Track(64, {16, 32, 48}));
  }
  const SegmentedChannel ch(std::move(tracks));
  const ChannelIndex idx(ch);
  const auto cs = gen::routable_workload(ch, 24, 8.0, rng);
  alg::DpOptions o;
  o.canonicalize_types = canon;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg::dp_route(idx, cs, o));
  }
}
BENCHMARK(BM_DpCanonicalization)->Arg(0)->Arg(1);

void BM_MatchOptimal_VsM(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  auto inst = make_instance(8, 64, m, 47);
  const ChannelIndex idx(inst.ch);
  const auto w = weights::occupied_length();
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg::match1_route_optimal(idx, inst.cs, w));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_MatchOptimal_VsM)->RangeMultiplier(2)->Range(8, 32)->Complexity();

void BM_LpRoute_VsM(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const auto inst = make_instance(10, 80, m, 48);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg::lp_route(inst.ch, inst.cs));
  }
}
BENCHMARK(BM_LpRoute_VsM)->RangeMultiplier(2)->Range(8, 32);

void BM_GeneralizedDp_VsM(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  std::mt19937_64 rng(49);
  const auto ch = SegmentedChannel(
      {Track(24, {6, 12, 18}), Track(24, {4, 14}), Track(24, {8, 16})});
  const ChannelIndex idx(ch);
  const auto cs = gen::routable_workload(ch, m, 4.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg::generalized_dp_route(idx, cs));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_GeneralizedDp_VsM)->DenseRange(2, 8, 2)->Complexity();

void BM_ReductionBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937_64 rng(50);
  const auto inst = npc::random_solvable_nmts(n, rng).normalized();
  for (auto _ : state) {
    benchmark::DoNotOptimize(npc::build_unlimited(inst));
  }
}
BENCHMARK(BM_ReductionBuild)->DenseRange(2, 6, 1);

}  // namespace

BENCHMARK_MAIN();
