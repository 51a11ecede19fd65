#include "obs/metrics.hpp"

#include <fstream>
#include <tuple>

#include "obs/json.hpp"
#include "util/logging.hpp"

namespace wrht::obs {

namespace {

/// Percentiles every histogram export carries.
constexpr std::pair<const char*, double> kExportQuantiles[] = {
    {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}};

}  // namespace

void TimeSeriesSampler::track(std::string name, const Gauge* gauge) {
  series_.push_back(Series{std::move(name), gauge, {}});
  // A gauge registered mid-run starts its series at the NEXT snapshot; the
  // exporters handle series of different lengths.
}

void TimeSeriesSampler::maybe_sample(util::Seconds now) {
  if (sampled_once_ && now < last_ + cadence_) return;
  sample_now(now);
}

void TimeSeriesSampler::sample_now(util::Seconds now) {
  for (Series& series : series_) {
    const Point point{now.value(), series.gauge->value()};
    if (!series.points.empty() &&
        series.points.back().time_seconds == point.time_seconds) {
      // Same sim instant sampled twice (event cascade): the later value is
      // the instant's truth, and one point per timestamp keeps every
      // series strictly increasing in time.
      series.points.back() = point;
    } else {
      series.points.push_back(point);
    }
  }
  last_ = now;
  sampled_once_ = true;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  for (auto& [existing, value] : counters_) {
    if (existing == name) return &value;
  }
  counters_.emplace_back(name, Counter{});
  return &counters_.back().second;
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  for (auto& [existing, value] : gauges_) {
    if (existing == name) return &value;
  }
  gauges_.emplace_back(name, Gauge{});
  return &gauges_.back().second;
}

Gauge* MetricsRegistry::sampled_gauge(const std::string& name) {
  Gauge* handle = gauge(name);
  for (const TimeSeriesSampler::Series& series : sampler_.series()) {
    if (series.gauge == handle) return handle;  // already tracked
  }
  sampler_.track(name, handle);
  return handle;
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      double first_bound, double growth,
                                      std::size_t num_buckets) {
  for (auto& [existing, value] : histograms_) {
    if (existing == name) return &value;
  }
  histograms_.emplace_back(
      std::piecewise_construct, std::forward_as_tuple(name),
      std::forward_as_tuple(first_bound, growth, num_buckets));
  return &histograms_.back().second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  for (const auto& [existing, value] : counters_) {
    if (existing == name) return &value;
  }
  return nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  for (const auto& [existing, value] : gauges_) {
    if (existing == name) return &value;
  }
  return nullptr;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  for (const auto& [existing, value] : histograms_) {
    if (existing == name) return &value;
  }
  return nullptr;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(name) + ": " +
           std::to_string(counter.value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(name) + ": " + json_number(gauge.value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    const sim::Summary& summary = histogram.summary();
    out += "    " + json_quote(name) + ": {\"count\": " +
           std::to_string(histogram.count()) +
           ", \"min\": " + json_number(summary.min()) +
           ", \"mean\": " + json_number(summary.mean()) +
           ", \"max\": " + json_number(summary.max());
    for (const auto& [label, q] : kExportQuantiles) {
      out += ", \"";
      out += label;
      out += "\": " + json_number(histogram.quantile(q));
    }
    // Buckets as [upper_bound, count] pairs, zero rows skipped (the tails
    // of a 48-bucket exponential ladder are mostly empty).
    out += ", \"buckets\": [";
    const sim::Histogram& buckets = histogram.buckets();
    bool first_bucket = true;
    for (std::size_t i = 0; i < buckets.buckets().size(); ++i) {
      if (buckets.buckets()[i] == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "[";
      out += json_number(buckets.bucket_bound(i));
      out += ", ";
      out += std::to_string(buckets.buckets()[i]);
      out += "]";
    }
    out += "]}";
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"series\": {";
  first = true;
  for (const TimeSeriesSampler::Series& series : sampler_.series()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quote(series.name) + ": [";
    bool first_point = true;
    for (const TimeSeriesSampler::Point& point : series.points) {
      if (!first_point) out += ", ";
      first_point = false;
      out += "[";
      out += json_number(point.time_seconds);
      out += ", ";
      out += json_number(point.value);
      out += "]";
    }
    out += "]";
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    WRHT_ERROR() << "MetricsRegistry: cannot open " << path << " for writing";
    return false;
  }
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace wrht::obs
