// The streaming frontend's two equivalence claims, proven field by field:
//
//   1. serve() (specs pulled one at a time off a JobSource, arrival events
//      chained) produces the SAME RuntimeReport as run() (every spec
//      submitted up front) on the same workload.
//   2. flat_hot_path = true (recycled event queue, interval arbiter,
//      batched releases, head-offset admission queue) produces the SAME
//      report as the naive event loop, on optical-only AND hybrid
//      electrical-overflow configurations — with the shared fabric's
//      epoch replay audit re-proving every step.
//
// Doubles are compared with EXPECT_EQ on purpose: bit-identity is the
// claim, not approximate agreement.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "runtime/runtime.hpp"
#include "workload/generator.hpp"

namespace wrht::runtime {
namespace {

workload::WorkloadConfig small_workload(std::uint64_t jobs, double rate) {
  workload::WorkloadConfig w;
  w.seed = 5;
  w.num_jobs = jobs;
  w.ring_size = 32;
  w.mean_rate = rate;
  w.payload_median = util::kilobytes(128);
  w.max_payload = util::megabytes(4);
  w.max_participants = 12;
  return w;
}

RuntimeConfig base_config(bool flat) {
  RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 32;
  config.policy = FairnessPolicy::kFifo;
  config.default_request = 4;
  config.batcher.enabled = false;
  config.flat_hot_path = flat;
  return config;
}

RuntimeReport run_materialized(const workload::WorkloadConfig& w,
                               const RuntimeConfig& config) {
  workload::WorkloadGenerator gen(w);
  CollectiveRuntime rt(config);
  while (std::optional<JobSpec> spec = gen.next()) {
    rt.submit(std::move(*spec));
  }
  return rt.run();
}

RuntimeReport run_streamed(const workload::WorkloadConfig& w,
                           const RuntimeConfig& config) {
  workload::WorkloadGenerator gen(w);
  CollectiveRuntime rt(config);
  return rt.serve(gen);
}

void expect_reports_identical(const RuntimeReport& a, const RuntimeReport& b) {
  EXPECT_EQ(a.makespan.value(), b.makespan.value());
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.total_retunes, b.total_retunes);
  EXPECT_EQ(a.spectrum_reservations, b.spectrum_reservations);
  EXPECT_EQ(a.peak_concurrent_jobs, b.peak_concurrent_jobs);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.resumes, b.resumes);
  EXPECT_EQ(a.resizes, b.resizes);
  EXPECT_EQ(a.step_retimes, b.step_retimes);
  EXPECT_EQ(a.electrical_link_peak, b.electrical_link_peak);
  EXPECT_EQ(a.total_turnaround.value(), b.total_turnaround.value());
  EXPECT_EQ(a.optical.jobs, b.optical.jobs);
  EXPECT_EQ(a.optical.executions, b.optical.executions);
  EXPECT_EQ(a.optical.steps, b.optical.steps);
  EXPECT_EQ(a.optical.makespan.value(), b.optical.makespan.value());
  EXPECT_EQ(a.electrical.jobs, b.electrical.jobs);
  EXPECT_EQ(a.electrical.steps, b.electrical.steps);
  EXPECT_EQ(a.electrical.makespan.value(), b.electrical.makespan.value());
  EXPECT_EQ(a.electrical.busy_time.value(), b.electrical.busy_time.value());
  EXPECT_EQ(a.slo.jobs, b.slo.jobs);
  EXPECT_EQ(a.slo.p50_turnaround.value(), b.slo.p50_turnaround.value());
  EXPECT_EQ(a.slo.p99_turnaround.value(), b.slo.p99_turnaround.value());
  EXPECT_EQ(a.slo.p999_turnaround.value(), b.slo.p999_turnaround.value());
  EXPECT_EQ(a.slo.p50_slowdown, b.slo.p50_slowdown);
  EXPECT_EQ(a.slo.p99_slowdown, b.slo.p99_slowdown);
  EXPECT_EQ(a.slo.max_wait.value(), b.slo.max_wait.value());
  EXPECT_EQ(a.slo.deadline_jobs, b.slo.deadline_jobs);
  EXPECT_EQ(a.slo.deadline_hits, b.slo.deadline_hits);
}

TEST(RuntimeServe, StreamingServeMatchesMaterializedRun) {
  const workload::WorkloadConfig w = small_workload(800, 2000.0);
  const RuntimeConfig config = base_config(/*flat=*/true);
  expect_reports_identical(run_materialized(w, config),
                           run_streamed(w, config));
}

TEST(RuntimeServe, FlatAndNaiveReportsBitIdenticalOptical) {
  const workload::WorkloadConfig w = small_workload(1000, 3000.0);
  const RuntimeReport naive =
      run_materialized(w, base_config(/*flat=*/false));
  const RuntimeReport flat = run_streamed(w, base_config(/*flat=*/true));
  expect_reports_identical(naive, flat);
  EXPECT_EQ(flat.completed, 1000u);
}

TEST(RuntimeServe, FlatAndNaiveBitIdenticalHybridElectricalOverflow) {
  // Overflow load spills onto the shared two-level electrical fabric, so
  // this run exercises the windowed flow-network clone, batched session
  // retirement, AND the epoch replay audit in both modes.
  workload::WorkloadConfig w = small_workload(600, 4000.0);
  RuntimeConfig naive_cfg = base_config(/*flat=*/false);
  naive_cfg.placement = HybridPlacementPolicy::kElectricalOverflow;
  naive_cfg.electrical.fabric = ElectricalFabric::kTwoLevelShared;
  naive_cfg.electrical.oversubscription = 4.0;
  RuntimeConfig flat_cfg = naive_cfg;
  flat_cfg.flat_hot_path = true;

  const RuntimeReport naive = run_materialized(w, naive_cfg);
  const RuntimeReport flat = run_streamed(w, flat_cfg);
  expect_reports_identical(naive, flat);
  EXPECT_GT(flat.electrical.jobs, 0u);
  // The audit actually ran: the shared fabric re-proved its steps.
  EXPECT_GT(flat.replay_checked_steps, 0u);
  EXPECT_EQ(flat.replay_checked_steps, naive.replay_checked_steps);
}

TEST(RuntimeServe, PreSubmittedJobsServeAheadOfTheSource) {
  // serve() also honors jobs submitted before it starts: they are the
  // t<first-arrival prefix of the same deterministic timeline.
  const workload::WorkloadConfig w = small_workload(100, 1000.0);

  workload::WorkloadGenerator all(w);
  CollectiveRuntime together(base_config(/*flat=*/true));
  const RuntimeReport expected = together.serve(all);

  workload::WorkloadGenerator split(w);
  CollectiveRuntime rt(base_config(/*flat=*/true));
  // Hand the first ten specs over as pre-submissions...
  for (int i = 0; i < 10; ++i) {
    rt.submit(std::move(*split.next()));
  }
  // ...and stream the rest.
  const RuntimeReport report = rt.serve(split);
  expect_reports_identical(expected, report);
}

TEST(RuntimeServe, ServeAfterRunDies) {
  CollectiveRuntime rt(base_config(/*flat=*/true));
  JobSpec spec;
  spec.participants = {0, 1, 2};
  spec.payload = util::kilobytes(64);
  rt.submit(spec);
  rt.run();
  workload::WorkloadGenerator gen(small_workload(5, 100.0));
  EXPECT_DEATH(rt.serve(gen), "serve");
}

}  // namespace
}  // namespace wrht::runtime
