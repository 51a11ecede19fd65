// Million-job trace-driven serving throughput: flattened hot paths vs. the
// naive event loop.
//
// The same generated workload (seeded Poisson arrivals, heavy-tailed
// payloads and participant sets) is served two ways:
//
//   naive  flat_hot_path = false — the original event loop: per-transfer
//          spectrum-release events, O(W) arbiter scans, O(queue) admission
//          scans and erases, remove-erase outstanding registries — with the
//          whole trace materialized and scheduled up front, the pre-
//          streaming modus operandi;
//   flat   flat_hot_path = true — slot-recycled event queue, interval-
//          indexed arbiter, one release event per step, head-offset
//          admission queue — pulled through CollectiveRuntime::serve() one
//          spec at a time.
//
// Both modes make bit-identical decisions, which the bench PROVES by
// comparing the two RuntimeReports field by field (any drift fails the
// run).  The headline metrics are sustained jobs/sec in each mode, their
// ratio, and the peak RSS of the streaming phase.
//
// The arrival rate deliberately exceeds the spectrum's service capacity, so
// a backlog forms and the naive mode's O(queue)-per-event scans surface —
// exactly the regime a million-job serving frontend lives in.
//
//   $ ./bench/serve_throughput [--jobs=100000] [--naive-jobs=0] [--seed=1]
//
// A third rung serves the flat workload again on the default config, the
// functional oracle on (every execution proven before it runs).  Its
// jobs/sec and its ratio to the oracle-off headline are reported for
// information, with no wall-time gate; its report must be bit-identical to
// the oracle-off one, since a proof decides nothing the schedule does.
//
// --naive-jobs caps the naive measurement separately (0 = same as --jobs):
// at nightly's 10^6 jobs the naive mode's quadratic backlog costs would
// run for hours, so it is measured at a smaller count — which UNDERSTATES
// the speedup (naive jobs/sec only degrades with scale), keeping the
// reported ratio conservative.  The bit-identity check always runs both
// modes at the naive count.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_json.hpp"
#include "runtime/runtime.hpp"
#include "util/cli.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wrht;

/// Wall-clock seconds elapsed since `since` — this bench measures HOST
/// throughput of the simulator itself; nothing here feeds the sim clock.
// simlint-allow(wallclock): benchmarking the event loop's real-time cost
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point since) {
  return std::chrono::duration<double>(WallClock::now() - since).count();
}

/// Peak resident set (VmHWM) in kB; 0 where /proc is unavailable.
std::uint64_t peak_rss_kb() {
  std::uint64_t kb = 0;
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
#endif
  return kb;
}

workload::WorkloadConfig make_workload_config(std::uint64_t jobs,
                                              std::uint64_t seed,
                                              double rate) {
  workload::WorkloadConfig w;
  w.seed = seed;
  w.num_jobs = jobs;
  w.ring_size = 64;
  w.arrivals = workload::ArrivalProcess::kPoisson;
  // Above service capacity on purpose: the backlog this builds is the
  // naive mode's worst case and the flat mode's design point.
  w.mean_rate = rate;
  w.payload_median = util::kilobytes(256);
  w.max_payload = util::megabytes(16);
  w.max_participants = 16;
  w.deadline_fraction = 0.5;
  return w;
}

runtime::RuntimeConfig make_runtime_config(bool flat, bool oracle = false) {
  runtime::RuntimeConfig config;
  config.ring_size = 64;
  config.optical.wdm.num_wavelengths = 64;
  config.policy = runtime::FairnessPolicy::kFifo;
  config.default_request = 8;
  config.batcher.enabled = false;
  // The oracle re-proves every schedule; at 10^5+ jobs that is pure
  // per-job overhead identical in both modes, so it would only dilute the
  // event-loop comparison this bench exists for.  The oracle-on rung
  // measures it separately.
  config.validate_with_oracle = oracle;
  config.flat_hot_path = flat;
  return config;
}

struct Measured {
  runtime::RuntimeReport report;
  double wall_s = 0.0;
};

/// The naive path: materialize the whole trace, submit everything up
/// front, run().  Generation cost is included — that is what the
/// pre-streaming workflow paid too.
Measured run_naive(std::uint64_t jobs, std::uint64_t seed, double rate) {
  const auto start = WallClock::now();
  workload::WorkloadGenerator gen(make_workload_config(jobs, seed, rate));
  std::vector<runtime::JobSpec> specs;
  specs.reserve(jobs);
  while (std::optional<runtime::JobSpec> spec = gen.next()) {
    specs.push_back(std::move(*spec));
  }
  runtime::CollectiveRuntime rt(make_runtime_config(/*flat=*/false));
  for (runtime::JobSpec& spec : specs) rt.submit(std::move(spec));
  Measured m;
  m.report = rt.run();
  m.wall_s = seconds_since(start);
  return m;
}

/// The streaming path: serve() pulls specs straight off the generator.
Measured run_flat(std::uint64_t jobs, std::uint64_t seed, double rate,
                  bool oracle = false) {
  const auto start = WallClock::now();
  workload::WorkloadGenerator gen(make_workload_config(jobs, seed, rate));
  runtime::CollectiveRuntime rt(make_runtime_config(/*flat=*/true, oracle));
  Measured m;
  m.report = rt.serve(gen);
  m.wall_s = seconds_since(start);
  return m;
}

/// Field-by-field bit comparison of two reports; prints every mismatch.
bool reports_identical(const runtime::RuntimeReport& a,
                       const runtime::RuntimeReport& b) {
  bool ok = true;
  const auto check = [&ok](const char* field, double x, double y) {
    if (x != y) {
      std::printf("  report mismatch: %s %.17g vs %.17g\n", field, x, y);
      ok = false;
    }
  };
  check("makespan", a.makespan.value(), b.makespan.value());
  check("submitted", a.submitted, b.submitted);
  check("completed", a.completed, b.completed);
  check("rejected", a.rejected, b.rejected);
  check("executions", a.executions, b.executions);
  check("batches", a.batches, b.batches);
  check("total_steps", static_cast<double>(a.total_steps),
        static_cast<double>(b.total_steps));
  check("total_retunes", static_cast<double>(a.total_retunes),
        static_cast<double>(b.total_retunes));
  check("spectrum_reservations", static_cast<double>(a.spectrum_reservations),
        static_cast<double>(b.spectrum_reservations));
  check("peak_concurrent_jobs", a.peak_concurrent_jobs,
        b.peak_concurrent_jobs);
  check("total_turnaround", a.total_turnaround.value(),
        b.total_turnaround.value());
  check("slo.p50_turnaround", a.slo.p50_turnaround.value(),
        b.slo.p50_turnaround.value());
  check("slo.p99_turnaround", a.slo.p99_turnaround.value(),
        b.slo.p99_turnaround.value());
  check("slo.p999_turnaround", a.slo.p999_turnaround.value(),
        b.slo.p999_turnaround.value());
  check("slo.p99_slowdown", a.slo.p99_slowdown, b.slo.p99_slowdown);
  check("slo.max_wait", a.slo.max_wait.value(), b.slo.max_wait.value());
  check("slo.deadline_hits", static_cast<double>(a.slo.deadline_hits),
        static_cast<double>(b.slo.deadline_hits));
  check("optical.steps", static_cast<double>(a.optical.steps),
        static_cast<double>(b.optical.steps));
  check("optical.makespan", a.optical.makespan.value(),
        b.optical.makespan.value());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Trace-driven serving throughput: flat vs naive loop.");
  cli.add_flag("jobs", "100000", "jobs served by the flat streaming mode");
  cli.add_flag("naive-jobs", "0",
               "jobs for the naive measurement (0 = same as --jobs)");
  cli.add_flag("seed", "1", "workload seed");
  cli.add_flag("rate", "50000",
               "mean arrival rate, jobs per simulated second");
  if (!cli.parse(argc, argv)) return 1;

  const auto jobs = static_cast<std::uint64_t>(cli.get_int("jobs"));
  const std::uint64_t naive_jobs =
      cli.get_int("naive-jobs") > 0
          ? static_cast<std::uint64_t>(cli.get_int("naive-jobs"))
          : jobs;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double rate = cli.get_double("rate");

  // Flat first, so its VmHWM reading is not polluted by the naive mode's
  // materialized trace.
  std::printf("flat streaming serve: %lu jobs...\n",
              static_cast<unsigned long>(jobs));
  const Measured flat = run_flat(jobs, seed, rate);
  const std::uint64_t flat_rss_kb = peak_rss_kb();

  std::printf("flat streaming serve, oracle on: %lu jobs...\n",
              static_cast<unsigned long>(jobs));
  const Measured proven = run_flat(jobs, seed, rate, /*oracle=*/true);

  std::printf("naive materialized run: %lu jobs...\n",
              static_cast<unsigned long>(naive_jobs));
  const Measured naive = run_naive(naive_jobs, seed, rate);

  // Bit-identity: both modes at the naive job count (the flat run is
  // re-done at that count when the two differ).
  const Measured flat_ref =
      naive_jobs == jobs ? flat : run_flat(naive_jobs, seed, rate);
  std::printf("comparing reports at %lu jobs...\n",
              static_cast<unsigned long>(naive_jobs));
  const bool identical = reports_identical(flat_ref.report, naive.report);
  std::printf("comparing oracle-on and oracle-off reports at %lu jobs...\n",
              static_cast<unsigned long>(jobs));
  const bool oracle_identical =
      reports_identical(proven.report, flat.report) &&
      proven.report.oracle_failures == 0;

  const double flat_jps =
      static_cast<double>(flat.report.completed) / flat.wall_s;
  const double naive_jps =
      static_cast<double>(naive.report.completed) / naive.wall_s;
  // The >= 10x gate compares EQUAL job counts — flat re-measured at the
  // naive count when the two differ — since the naive mode's jobs/sec is a
  // function of how deep its quadratic backlog got.
  const double flat_ref_jps =
      static_cast<double>(flat_ref.report.completed) / flat_ref.wall_s;
  const double speedup = flat_ref_jps / naive_jps;
  const double oracle_on_jps =
      static_cast<double>(proven.report.completed) / proven.wall_s;

  std::printf("\n%-28s %12s %14s\n", "mode", "wall", "jobs/sec");
  std::printf("%-28s %10.2fs %14.0f\n", "naive (materialized run)",
              naive.wall_s, naive_jps);
  std::printf("%-28s %10.2fs %14.0f\n", "flat (streaming serve)", flat.wall_s,
              flat_jps);
  std::printf("%-28s %10.2fs %14.0f  (%.2fx of oracle off)\n",
              "flat, oracle on", proven.wall_s, oracle_on_jps,
              oracle_on_jps / flat_jps);
  std::printf("\nsame-count speedup: %.1fx (both modes at %lu jobs)\n",
              speedup, static_cast<unsigned long>(naive_jobs));
  std::printf("flat-phase peak RSS: %lu kB\n",
              static_cast<unsigned long>(flat_rss_kb));
  std::printf("reports bit-identical: %s\n", identical ? "yes" : "NO");
  std::printf("oracle-on report bit-identical: %s\n",
              oracle_identical ? "yes" : "NO");

  const bool ok = identical && oracle_identical && speedup >= 10.0 &&
                  flat.report.completed == jobs &&
                  naive.report.completed == naive_jobs;

  harness::BenchJson json("serve_throughput");
  json.note("verdict", ok ? "PASS" : "FAIL");
  json.note("reports_bit_identical", identical ? "pass" : "fail");
  json.note("oracle_on_report_bit_identical",
            oracle_identical ? "pass" : "fail");
  json.metric("flat_jobs", static_cast<double>(jobs));
  json.metric("naive_jobs", static_cast<double>(naive_jobs));
  json.metric("arrival_rate_per_sec", rate);
  json.metric("flat_jobs_per_sec", flat_jps);
  json.metric("naive_jobs_per_sec", naive_jps);
  json.metric("same_count_flat_jobs_per_sec", flat_ref_jps);
  json.metric("speedup", speedup);
  json.metric("oracle_on_jobs_per_s", oracle_on_jps);
  json.metric("oracle_on_ratio", oracle_on_jps / flat_jps);
  json.metric("flat_wall_s", flat.wall_s);
  json.metric("naive_wall_s", naive.wall_s);
  json.metric("flat_peak_rss_kb", static_cast<double>(flat_rss_kb));
  json.metric("flat_makespan_s", flat.report.makespan.value());
  json.metric("flat_p99_turnaround_s",
              flat.report.slo.p99_turnaround.value());
  json.write();

  std::printf("flat >= 10x naive and all reports identical: %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
