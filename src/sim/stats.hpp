// Lightweight statistics used by the simulators: running summaries and
// fixed-bucket histograms.  Everything is plain value-semantics so a
// network model can embed them freely.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace wrht::sim {

/// Streaming min/max/mean/variance (Welford).
class Summary {
 public:
  void record(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double total() const { return total_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double total_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Histogram with exponentially-spaced bucket boundaries starting at
/// `first_bound` and growing by `growth` per bucket.
class Histogram {
 public:
  Histogram(double first_bound, double growth, std::size_t num_buckets);

  void record(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return counts_;
  }
  /// Upper bound of bucket i (the last bucket is unbounded).
  [[nodiscard]] double bucket_bound(std::size_t i) const { return bounds_[i]; }
  /// Smallest recorded value x such that at least `quantile` of the mass is
  /// <= bucket containing x (bucket upper bound; coarse but monotone).
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

}  // namespace wrht::sim
