// Sample statistics for the service benchmark: quantiles, summaries and
// blocks of samples in fixed storage, so a run's memory does not grow
// with the number of requests it times.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace svcbench {

/// Quantile of an ascending sample by linear interpolation between
/// closest ranks (numpy's default, R type 7): q = 0 is the minimum,
/// q = 1 the maximum. An empty sample yields 0.
inline double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = quantile_sorted(v, 0.50);
  s.p90 = quantile_sorted(v, 0.90);
  s.p99 = quantile_sorted(v, 0.99);
  return s;
}

/// A timed phase cut into blocks of about equal timed length, each
/// summarized on its own. A run reports a quantile over its blocks, so a
/// burst of outside interference spoils some blocks, not the result.
/// A block keeps every sample it is given, up to `capacity`, in storage
/// allocated and touched up front: the benchmark's resident memory is
/// the same however many requests a run completes. The caller closes a
/// block before it overflows (room()); add() on a full block is dropped.
class BlockStats {
 public:
  struct Block {
    std::uint64_t ops = 0;
    double seconds = 0.0;
    Summary lat;  // latency within the block
  };

  explicit BlockStats(std::size_t capacity) : buf_(capacity, 0.0) {}

  void add(double latency) {
    if (size_ < buf_.size()) buf_[size_++] = latency;
  }

  /// Samples the current block can still take.
  [[nodiscard]] std::size_t room() const { return buf_.size() - size_; }

  /// Ends the current block: `ops` requests in `seconds` of timed work.
  void close_block(std::uint64_t ops, double seconds) {
    if (ops > 0 && seconds > 0.0) {
      blocks_.push_back(
          {ops, seconds,
           summarize({buf_.begin(),
                      buf_.begin() + static_cast<std::ptrdiff_t>(size_)})});
    }
    size_ = 0;
  }

  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  /// Quantile q over blocks of the block's rate, ops / seconds.
  [[nodiscard]] double rate(double q) const {
    return quantile_of(q, [](const Block& b) {
      return static_cast<double>(b.ops) / b.seconds;
    });
  }
  /// Quantile q over blocks of the block's latency p50 (p90, p99).
  [[nodiscard]] double p50(double q) const {
    return quantile_of(q, [](const Block& b) { return b.lat.p50; });
  }
  [[nodiscard]] double p90(double q) const {
    return quantile_of(q, [](const Block& b) { return b.lat.p90; });
  }
  [[nodiscard]] double p99(double q) const {
    return quantile_of(q, [](const Block& b) { return b.lat.p99; });
  }

 private:
  template <class F>
  double quantile_of(double q, F f) const {
    std::vector<double> v;
    v.reserve(blocks_.size());
    for (const Block& b : blocks_) v.push_back(f(b));
    return quantile(std::move(v), q);
  }

  std::vector<double> buf_;
  std::size_t size_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace svcbench
