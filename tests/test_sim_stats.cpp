#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace wrht::sim {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary summary;
  EXPECT_EQ(summary.count(), 0u);
  EXPECT_DOUBLE_EQ(summary.mean(), 0.0);
  EXPECT_DOUBLE_EQ(summary.variance(), 0.0);
  EXPECT_DOUBLE_EQ(summary.min(), 0.0);
  EXPECT_DOUBLE_EQ(summary.max(), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary summary;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    summary.record(x);
  }
  EXPECT_EQ(summary.count(), 8u);
  EXPECT_DOUBLE_EQ(summary.mean(), 5.0);
  EXPECT_DOUBLE_EQ(summary.min(), 2.0);
  EXPECT_DOUBLE_EQ(summary.max(), 9.0);
  EXPECT_DOUBLE_EQ(summary.total(), 40.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(summary.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(summary.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, SingleValueHasZeroVariance) {
  Summary summary;
  summary.record(3.5);
  EXPECT_DOUBLE_EQ(summary.variance(), 0.0);
  EXPECT_DOUBLE_EQ(summary.mean(), 3.5);
}

TEST(Summary, WelfordStableForLargeOffsets) {
  // Classic catastrophic-cancellation case: values with a huge common
  // offset.  Welford keeps the variance exact.
  Summary summary;
  const double offset = 1e9;
  for (const double x : {offset + 1.0, offset + 2.0, offset + 3.0}) {
    summary.record(x);
  }
  EXPECT_NEAR(summary.variance(), 1.0, 1e-6);
}

TEST(Histogram, BucketsAndCount) {
  Histogram histogram(1.0, 10.0, 4);  // bounds 1, 10, 100, 1000
  histogram.record(0.5);    // bucket 0 (<= 1)
  histogram.record(5.0);    // bucket 1
  histogram.record(50.0);   // bucket 2
  histogram.record(500.0);  // bucket 3
  histogram.record(5000.0); // overflow bucket
  EXPECT_EQ(histogram.count(), 5u);
  const auto& buckets = histogram.buckets();
  ASSERT_EQ(buckets.size(), 5u);
  for (const auto count : buckets) {
    EXPECT_EQ(count, 1u);
  }
}

TEST(Histogram, BoundaryGoesToLowerBucket) {
  Histogram histogram(1.0, 10.0, 3);
  histogram.record(1.0);  // exactly on the first bound -> bucket 0
  EXPECT_EQ(histogram.buckets()[0], 1u);
}

TEST(Histogram, QuantileMonotone) {
  Histogram histogram(1e-6, 2.0, 30);
  for (int i = 0; i < 1000; ++i) {
    histogram.record(1e-5 * (1 + i % 100));
  }
  const double q10 = histogram.quantile(0.10);
  const double q50 = histogram.quantile(0.50);
  const double q99 = histogram.quantile(0.99);
  EXPECT_LE(q10, q50);
  EXPECT_LE(q50, q99);
}

TEST(Histogram, QuantileOfEmptyIsZero) {
  Histogram histogram(1.0, 2.0, 4);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
}

}  // namespace
}  // namespace wrht::sim
