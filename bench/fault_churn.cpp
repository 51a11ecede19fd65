// Goodput under churn: the same seeded workload served under increasing
// fault pressure.  Each sweep point scales every failure domain's rate by
// a multiplier (x0 is the fault-free baseline), serves the identical job
// stream — the chaos process draws from its own derived seed, so the
// submissions are byte-identical across points — and records what the
// recovery machinery salvaged: goodput (1 - wasted step share), MTTR,
// completions, kills, evictions/restarts/migrations.  A fifth arm keeps
// the x1 rates but makes ToR losses 8x as frequent and routes by the cost
// models, so some tenants sit on the electrical fabric when their ToR dies;
// the run fails unless that arm migrates at least one of them.
//
// Determinism is part of the contract: the x1 point is served twice and
// the run fails unless both passes agree bit-for-bit (completion order and
// every fault counter), so BENCH_fault_churn.json is byte-stable per seed.
//
//   $ ./bench/fault_churn [--jobs=300] [--seed=1]
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_json.hpp"
#include "runtime/runtime.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wrht;

/// One sweep arm: every domain's rate scaled by `multiplier`, and the ToR
/// rate additionally by `tor_weight` (1 everywhere except the ToR arm).
struct Arm {
  std::string label;
  double multiplier = 0.0;
  double tor_weight = 1.0;
  runtime::HybridPlacementPolicy placement =
      runtime::HybridPlacementPolicy::kElectricalOverflow;
};

struct ChurnPoint {
  Arm arm;
  runtime::RuntimeReport report;
  std::vector<runtime::JobId> completion_order;
};

workload::WorkloadConfig workload_for(std::uint64_t jobs, std::uint64_t seed,
                                      double fault_multiplier,
                                      double tor_weight) {
  workload::WorkloadConfig w;
  w.seed = seed;
  w.num_jobs = jobs;
  w.ring_size = 32;
  w.mean_rate = 400.0;
  w.max_participants = 16;
  w.payload_median = util::kilobytes(256);
  w.max_payload = util::megabytes(16);
  if (fault_multiplier > 0.0) {
    w.fault_horizon = util::Seconds(2.0);
    w.transceiver_mtbf = util::Seconds(0.05 / fault_multiplier);
    w.node_mtbf = util::Seconds(0.08 / fault_multiplier);
    w.tor_mtbf = util::Seconds(0.15 / (fault_multiplier * tor_weight));
    w.wavelength_mtbf = util::Seconds(0.06 / fault_multiplier);
    w.fault_mttr = util::Seconds(0.01);
    w.fault_num_wavelengths = 16;
    w.fault_num_tors = 4;
  }
  return w;
}

ChurnPoint serve_point(std::uint64_t jobs, std::uint64_t seed,
                       const Arm& arm) {
  const double multiplier = arm.multiplier;
  workload::WorkloadGenerator source(
      workload_for(jobs, seed, multiplier, arm.tor_weight));
  runtime::FaultInjector injector = source.make_fault_injector();

  runtime::RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 16;
  config.placement = arm.placement;
  config.electrical.fabric = runtime::ElectricalFabric::kTwoLevelShared;
  config.electrical.hosts_per_tor = 8;
  if (multiplier > 0.0) config.faults = &injector;

  runtime::CollectiveRuntime rt(config);
  ChurnPoint point;
  point.arm = arm;
  point.report = rt.serve(source);
  point.completion_order = rt.completion_order();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Goodput vs fault rate under seeded chaos injection.");
  cli.add_flag("jobs", "300", "jobs per sweep point");
  cli.add_flag("seed", "1", "workload + chaos seed");
  if (!cli.parse(argc, argv)) return 1;
  const auto jobs = static_cast<std::uint64_t>(cli.get_int("jobs"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  // The rate sweep, plus a ToR-heavy arm: electrical tenants orphaned by a
  // ToR loss are the only ones that migrate, so without it the sweep never
  // reaches the cross-substrate restart path.
  const std::vector<Arm> arms = {
      {"x0", 0.0},
      {"x1", 1.0},
      {"x2", 2.0},
      {"x4", 4.0},
      {"tor", 1.0, 8.0, runtime::HybridPlacementPolicy::kCostModelChoice}};
  std::vector<ChurnPoint> points;
  for (const Arm& arm : arms) {
    points.push_back(serve_point(jobs, seed, arm));
  }

  // The determinism half of the contract: replay the x1 point and demand
  // bit-identity — the artifact must be byte-stable per seed.
  const ChurnPoint replay = serve_point(jobs, seed, arms[1]);
  const ChurnPoint& x1 = points[1];
  const bool deterministic =
      replay.completion_order == x1.completion_order &&
      replay.report.faults.injected == x1.report.faults.injected &&
      replay.report.faults.killed_jobs == x1.report.faults.killed_jobs &&
      replay.report.goodput() == x1.report.goodput() &&
      replay.report.makespan == x1.report.makespan;

  bool ok = deterministic;
  util::Table table({"fault rate", "faults", "disrupted", "evict/restart/migr",
                     "killed", "mttr", "goodput", "completed"});
  for (const ChurnPoint& point : points) {
    const runtime::RuntimeReport& r = point.report;
    // Every point must close its ledger and prove every completion.
    ok = ok && r.oracle_failures == 0 &&
         r.completed + r.rejected + r.faults.killed_jobs == r.submitted;
    table.add_row(
        {point.arm.label, std::to_string(r.faults.injected),
         std::to_string(r.faults.disrupted_executions),
         std::to_string(r.faults.evictions) + "/" +
             std::to_string(r.faults.restarts) + "/" +
             std::to_string(r.faults.migrations),
         std::to_string(r.faults.killed_jobs),
         util::to_string(r.faults.mttr()),
         std::to_string(r.goodput()).substr(0, 5),
         std::to_string(r.completed)});
  }
  // The churn must actually bite at the top of the sweep, or the MTBF
  // calibration has drifted into a no-op, and the ToR arm must migrate.
  const runtime::RuntimeReport& top = points[3].report;
  const bool migrated = points[4].report.faults.migrations > 0;
  ok = ok && top.faults.injected > 0 && top.faults.disrupted_executions > 0 &&
       migrated;

  std::printf("fault churn — %llu jobs per point, seed %llu\n\n",
              static_cast<unsigned long long>(jobs),
              static_cast<unsigned long long>(seed));
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nx1 replay bit-identical: %s\n",
              deterministic ? "yes" : "NO");
  std::printf("tor arm migrated a tenant: %s\n", migrated ? "yes" : "NO");
  std::printf("%s\n", ok ? "PASS" : "FAIL");

  harness::BenchJson json("fault_churn");
  json.note("verdict", ok ? "PASS" : "FAIL");
  json.note("deterministic_replay", deterministic ? "pass" : "fail");
  json.metric("jobs_per_point", static_cast<double>(jobs));
  json.metric("seed", static_cast<double>(seed));
  for (const ChurnPoint& point : points) {
    const std::string& at = point.arm.label;
    const runtime::RuntimeReport& r = point.report;
    json.metric("faults_" + at, static_cast<double>(r.faults.injected));
    json.metric("disrupted_" + at,
                static_cast<double>(r.faults.disrupted_executions));
    json.metric("evictions_" + at, static_cast<double>(r.faults.evictions));
    json.metric("restarts_" + at, static_cast<double>(r.faults.restarts));
    json.metric("migrations_" + at,
                static_cast<double>(r.faults.migrations));
    json.metric("killed_" + at, static_cast<double>(r.faults.killed_jobs));
    json.metric("mttr_ms_" + at, r.faults.mttr().value() * 1e3);
    json.metric("goodput_" + at, r.goodput());
    json.metric("completed_" + at, static_cast<double>(r.completed));
    json.metric("makespan_s_" + at, r.makespan.value());
  }
  json.write();
  return ok ? 0 : 1;
}
