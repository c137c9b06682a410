// Self-test of the benchmark's statistics (stats.h) on known vectors.
// Exits 0 when every check holds; prints each failure otherwise.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want,
                 double tol = 1e-12) {
  if (std::fabs(got - want) > tol) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace svcbench;

  // Linear interpolation between closest ranks (numpy's default).
  expect_near("median odd", median({5, 1, 4, 2, 3}), 3.0);
  expect_near("median even", median({4, 1, 3, 2}), 2.5);
  expect_near("median single", median({7}), 7.0);
  expect_near("median empty", median({}), 0.0);
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  expect_near("p90 of 1..10", quantile(ten, 0.9), 9.1);
  expect_near("p99 of 1..10", quantile(ten, 0.99), 9.91);
  expect_near("p0 of 1..10", quantile(ten, 0.0), 1.0);
  expect_near("p100 of 1..10", quantile(ten, 1.0), 10.0);
  expect_near("p25 of 1..10", quantile(ten, 0.25), 3.25);
  expect_near("q clamps above 1", quantile(ten, 2.0), 10.0);

  const Summary s = summarize({10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110});
  expect_near("summary n", static_cast<double>(s.n), 11.0);
  expect_near("summary p50", s.p50, 60.0);
  expect_near("summary p90", s.p90, 100.0);
  expect_near("summary p99", s.p99, 109.0);

  // Blocks: quantiles over blocks of the rate and of each block's p50/p90.
  BlockStats blocks(64);
  const double rates[] = {100, 200, 300, 400, 500};
  for (int b = 0; b < 5; ++b) {
    for (int i = 1; i <= 9; ++i) blocks.add(10.0 * (b + 1) + i);
    blocks.close_block(static_cast<std::uint64_t>(rates[b]), 1.0);
  }
  blocks.close_block(0, 1.0);  // an empty block is not recorded
  expect_near("blocks count", static_cast<double>(blocks.blocks().size()), 5.0);
  expect_near("blocks room after close", static_cast<double>(blocks.room()),
              64.0);
  expect_near("blocks median rate", blocks.rate(0.5), 300.0);
  expect_near("blocks median p50", blocks.p50(0.5), 35.0);
  expect_near("blocks median p90", blocks.p90(0.5), 38.2);
  // Quartiles over blocks, interpolated like any other quantile.
  expect_near("blocks lower-quartile rate", blocks.rate(0.25), 200.0);
  expect_near("blocks upper-quartile p50", blocks.p50(0.75), 45.0);
  expect_near("blocks upper-quartile p90", blocks.p90(0.75), 48.2);
  expect_near("blocks p99 between blocks", blocks.p99(0.6), 42.92);

  // A full block drops further samples; the block keeps the first ones.
  BlockStats tiny(4);
  for (int i = 1; i <= 6; ++i) tiny.add(i);
  expect_near("full block room", static_cast<double>(tiny.room()), 0.0);
  tiny.close_block(6, 1.0);
  expect_near("full block p50", tiny.blocks().back().lat.p50, 2.5);
  expect_near("full block n", static_cast<double>(tiny.blocks().back().lat.n),
              4.0);

  if (failures == 0) std::printf("stats self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
