// The metrics registry's contracts: find-or-create identity, handle
// stability under growth, sampler cadence/overwrite semantics, and a
// metrics.json dump that actually parses and carries the recorded values.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace wrht::obs {
namespace {

using util::Seconds;

TEST(MetricsRegistry, FindOrCreateReturnsOneHandlePerName) {
  MetricsRegistry registry;
  Counter* a = registry.counter("a");
  Counter* b = registry.counter("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.counter("a"), a);
  EXPECT_EQ(registry.gauge("g"), registry.gauge("g"));
  EXPECT_EQ(registry.histogram("h"), registry.histogram("h"));
}

TEST(MetricsRegistry, HandlesStayValidAsTheRegistryGrows) {
  // The deques behind the registry must never move elements on growth: a
  // handle cached before hundreds of later registrations still addresses
  // the same metric.
  MetricsRegistry registry;
  Counter* first = registry.counter("first");
  Gauge* first_gauge = registry.gauge("first_gauge");
  first->increment(7);
  for (int i = 0; i < 500; ++i) {
    std::string counter_name = "c";
    counter_name += std::to_string(i);
    std::string gauge_name = "g";
    gauge_name += std::to_string(i);
    (void)registry.counter(counter_name);
    (void)registry.gauge(gauge_name);
  }
  first->increment(3);
  first_gauge->set(2.5);
  EXPECT_EQ(registry.find_counter("first")->value(), 10u);
  EXPECT_EQ(registry.find_gauge("first_gauge")->value(), 2.5);
  EXPECT_EQ(registry.counter("first"), first);
}

TEST(MetricsRegistry, SampledGaugeIsIdempotent) {
  MetricsRegistry registry;
  Gauge* g = registry.sampled_gauge("depth");
  EXPECT_EQ(registry.sampled_gauge("depth"), g);
  // One series, not one per registration.
  ASSERT_EQ(registry.sampler().series().size(), 1u);
  EXPECT_EQ(registry.sampler().series()[0].name, "depth");
  EXPECT_EQ(registry.sampler().series()[0].gauge, g);
}

TEST(MetricsRegistry, HistogramShapeIsFixedAtCreation) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat", 1e-3, 2.0, 4);
  // A later call with different shape arguments returns the original.
  EXPECT_EQ(registry.histogram("lat", 1e-6, 10.0, 32), h);
  h->observe(1e-3);
  h->observe(5e-3);
  h->observe(5e-3);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->summary().min(), 1e-3);
  EXPECT_EQ(h->summary().max(), 5e-3);
  // Bucketed quantiles are coarse but monotone.
  EXPECT_LE(h->quantile(0.1), h->quantile(0.9));
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
  EXPECT_EQ(registry.find_gauge("absent"), nullptr);
  EXPECT_EQ(registry.find_histogram("absent"), nullptr);
  EXPECT_TRUE(registry.counters().empty());
}

TEST(NullHelpers, NullHandlesAreNoOps) {
  // The uninstrumented hot path: every helper must tolerate nullptr.
  inc(nullptr);
  inc(nullptr, 42);
  set(nullptr, 1.0);
  set_max(nullptr, 1.0);
  observe(nullptr, 1.0);
  // And with real handles they do what the names say.
  MetricsRegistry registry;
  Counter* c = registry.counter("c");
  Gauge* g = registry.gauge("g");
  inc(c);
  inc(c, 4);
  set(g, 2.0);
  set_max(g, 1.0);  // below current: no effect
  set_max(g, 9.0);
  EXPECT_EQ(c->value(), 5u);
  EXPECT_EQ(g->value(), 9.0);
}

TEST(Sampler, FirstCallAlwaysSamplesThenCadenceGates) {
  TimeSeriesSampler sampler(util::microseconds(50.0));
  Gauge gauge;
  sampler.track("g", &gauge);

  gauge.set(1.0);
  sampler.maybe_sample(Seconds(0.0));  // first call: always samples
  gauge.set(2.0);
  sampler.maybe_sample(util::microseconds(10.0));  // inside cadence: skipped
  gauge.set(3.0);
  sampler.maybe_sample(util::microseconds(60.0));  // past cadence: samples

  const std::vector<TimeSeriesSampler::Point>& points =
      sampler.series()[0].points;
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].value, 1.0);
  EXPECT_EQ(points[1].value, 3.0);
  EXPECT_LT(points[0].time_seconds, points[1].time_seconds);
}

TEST(Sampler, SameInstantOverwritesKeepingTimeStrictlyIncreasing) {
  TimeSeriesSampler sampler(util::microseconds(50.0));
  Gauge gauge;
  sampler.track("g", &gauge);
  gauge.set(1.0);
  sampler.sample_now(Seconds(1.0));
  gauge.set(7.0);
  sampler.sample_now(Seconds(1.0));  // event cascade at the same sim instant
  ASSERT_EQ(sampler.series()[0].points.size(), 1u);
  EXPECT_EQ(sampler.series()[0].points[0].value, 7.0);
}

TEST(Sampler, LateTrackedGaugeJoinsAtNextSnapshot) {
  TimeSeriesSampler sampler(util::microseconds(50.0));
  Gauge early;
  Gauge late;
  sampler.track("early", &early);
  sampler.sample_now(Seconds(0.0));
  sampler.track("late", &late);
  sampler.sample_now(Seconds(1.0));
  EXPECT_EQ(sampler.series()[0].points.size(), 2u);
  EXPECT_EQ(sampler.series()[1].points.size(), 1u);
}

TEST(MetricsRegistry, ToJsonParsesAndCarriesTheRecordedValues) {
  MetricsRegistry registry;
  registry.counter("jobs")->increment(12);
  registry.gauge("depth")->set(3.0);
  Gauge* occ = registry.sampled_gauge("occupancy");
  occ->set(0.5);
  registry.sampler().sample_now(Seconds(0.25));
  Histogram* h = registry.histogram("wait");
  h->observe(1e-3);
  h->observe(2e-3);

  const JsonParseResult parsed = json_parse(registry.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;

  const JsonValue* counters = parsed.value.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("jobs"), nullptr);
  EXPECT_EQ(counters->find("jobs")->number, 12.0);

  const JsonValue* gauges = parsed.value.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->find("depth")->number, 3.0);

  const JsonValue* histograms = parsed.value.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* wait = histograms->find("wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->find("count")->number, 2.0);
  EXPECT_EQ(wait->find("min")->number, 1e-3);
  EXPECT_EQ(wait->find("max")->number, 2e-3);

  const JsonValue* series = parsed.value.find("series");
  ASSERT_NE(series, nullptr);
  const JsonValue* occupancy = series->find("occupancy");
  ASSERT_NE(occupancy, nullptr);
  ASSERT_EQ(occupancy->array.size(), 1u);
  EXPECT_EQ(occupancy->array[0].array[0].number, 0.25);
  EXPECT_EQ(occupancy->array[0].array[1].number, 0.5);
}

TEST(MetricsRegistry, EmptyRegistryStillDumpsValidJson) {
  const MetricsRegistry registry;
  EXPECT_TRUE(json_parse(registry.to_json()).ok);
}

}  // namespace
}  // namespace wrht::obs
