// One benchmark episode: a seeded workload served once through
// CollectiveRuntime::serve(), in one of the modes run.py
// combines into end-to-end and per-layer metrics.
//
// run.py runs every episode in its own process, one at a time, so a
// WRHT_CHECK abort inside the runtime costs that episode's jobs and nothing
// else.  Before serving, the episode prints a "pre" JSON line (submitted and
// deadline-carrying job counts, flushed) so run.py can account for the
// jobs of an episode that dies; after serving it prints one JSON object with
// the episode's results.
//
// Modes:
//   run        the defaults users run: oracle on, electrical replay audit
//              on, no metrics registry, no trace.  Times set-up, serve(),
//              and a machine-speed calibration kernel; reports the modelled
//              outcome and per-job samples.
//   traced     the same run with an obs::MetricsRegistry, sim::Trace, and
//              timing wrappers around the JobSource and FaultSource; then
//              replays layer entry points (wrht build, oracle proof, ring
//              spans, spectrum reserve/release, electrical flow timing) over
//              the run's own JobRecords.
//   no_oracle  run with validate_with_oracle = false (host-time ablation).
//   no_audit   run with electrical.replay_audit = false (host-time and
//              peak-RSS ablation).
//   abort      self-test: prints the pre line, then fails a WRHT_CHECK.
//
// Every mode prints a digest of the modelled outcome; the ablations and the
// traced pass must reproduce the run mode's digest bit for bit.
//
//   $ servebench_episode --workload=optical_default --seed=7 --jobs=5000
//                        --mode=run
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coll/algorithms.hpp"
#include "coll/oracle.hpp"
#include "elec/schedule_runner.hpp"
#include "elec/topology.hpp"
#include "obs/metrics.hpp"
#include "optical/spectrum.hpp"
#include "runtime/runtime.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "workload/generator.hpp"
#include "wrht/builder.hpp"

namespace {

using namespace wrht;

// simlint-allow(wallclock): host cost of the simulator, never fed to the sim clock
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point since) {
  return std::chrono::duration<double>(WallClock::now() - since).count();
}

constexpr std::uint32_t kRingSize = 64;
constexpr std::uint32_t kWavelengths = 64;
/// Set-up takes about a microsecond, so each sample is the mean of a batch
/// of set-ups; each process prints its samples and run.py takes medians.
constexpr int kSetupSamples = 15;
constexpr int kSetupBatch = 8;

/// Peak resident set (VmHWM) in kB; 0 where /proc is unavailable.
std::uint64_t peak_rss_kb() {
  std::uint64_t kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb;
}

/// Machine-speed probe.  Cores of a shared host drift in speed by a third
/// over minutes, which no amount of sampling inside one run averages out, so
/// each run-mode process also times this fixed kernel (sorting, map inserts,
/// small allocations: the simulator's kind of work) and run.py scales host
/// timings by it.  The kernel is benchmark code: program changes never touch
/// it.  Returns the median of kCalibrationReps timings; `check` consumes the
/// results so the work cannot be optimised away.
constexpr int kCalibrationReps = 15;

double calibration_kernel_s(std::uint64_t& check) {
  std::vector<double> times;
  for (int rep = 0; rep < kCalibrationReps; ++rep) {
    const auto start = WallClock::now();
    std::uint64_t x = 88172645463325252ULL;
    std::map<std::uint64_t, std::uint64_t> counts;
    std::vector<double> values;
    values.reserve(8192);
    for (std::uint64_t i = 0; i < 8192; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      values.push_back(static_cast<double>(x >> 11));
      if (i % 4 == 0) counts[x % 100000] += i;
    }
    std::sort(values.begin(), values.end());
    std::vector<std::vector<std::uint64_t>> chunks;
    for (std::uint64_t i = 0; i < 512; ++i) {
      chunks.emplace_back(16 + i % 48, i);
    }
    for (const auto& [key, count] : counts) check += key ^ count;
    check += static_cast<std::uint64_t>(values[4096]) + chunks[100].size();
    times.push_back(seconds_since(start));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

enum class Mode { kRun, kTraced, kNoOracle, kNoAudit, kAbort };

std::optional<Mode> parse_mode(const std::string& name) {
  if (name == "run") return Mode::kRun;
  if (name == "traced") return Mode::kTraced;
  if (name == "no_oracle") return Mode::kNoOracle;
  if (name == "no_audit") return Mode::kNoAudit;
  if (name == "abort") return Mode::kAbort;
  return std::nullopt;
}

struct Workload {
  workload::WorkloadConfig jobs;
  runtime::RuntimeConfig runtime;
  bool faults = false;
};

/// The three serving workloads.  All share the ring, spectrum, and job
/// marks; they differ in arrival process, policy, and substrate.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      std::uint64_t num_jobs) {
  Workload w;
  workload::WorkloadConfig& j = w.jobs;
  j.seed = seed;
  j.num_jobs = num_jobs;
  j.ring_size = kRingSize;
  j.max_participants = 16;
  j.payload_median = util::Bytes(256ULL * 1024);
  j.max_payload = util::Bytes(16ULL * 1024 * 1024);
  j.deadline_fraction = 0.5;
  w.runtime.ring_size = kRingSize;
  w.runtime.optical.wdm.num_wavelengths = kWavelengths;

  if (name == "optical_default") {
    j.arrivals = workload::ArrivalProcess::kPoisson;
    j.mean_rate = 10000.0;
  } else if (name == "hybrid_shared") {
    j.arrivals = workload::ArrivalProcess::kPoisson;
    j.mean_rate = 8000.0;
    w.runtime.placement = runtime::HybridPlacementPolicy::kCostModelChoice;
    w.runtime.routing_cost_model = runtime::RoutingCostModel::kCongestionAware;
    w.runtime.electrical.fabric = runtime::ElectricalFabric::kTwoLevelShared;
    w.runtime.electrical.hosts_per_tor = 8;
    w.runtime.electrical.oversubscription = 4.0;
  } else if (name == "chaos_renegotiate") {
    j.arrivals = workload::ArrivalProcess::kBursty;
    j.mean_rate = 8000.0;
    j.burst_rate_multiplier = 8.0;
    j.burst_fraction = 0.1;
    j.transceiver_mtbf = util::Seconds(0.050);
    j.node_mtbf = util::Seconds(0.080);
    j.wavelength_mtbf = util::Seconds(0.060);
    j.fault_mttr = util::Seconds(0.010);
    j.fault_num_wavelengths = kWavelengths;
    w.runtime.policy = runtime::FairnessPolicy::kPriorityPreempt;
    w.runtime.elastic_resize = true;
    w.runtime.aging_half_life = util::Seconds(0.050);
    w.faults = true;
  } else {
    return std::nullopt;
  }
  return w;
}

/// Counts run.py needs even when serve() aborts, plus the arrival span
/// the fault horizon must cover.  Generated from a throwaway generator with
/// the same seed, so the served stream is untouched.
struct PreCounts {
  std::uint64_t submitted = 0;
  std::uint64_t deadline_jobs = 0;
  double last_arrival_s = 0.0;
};

PreCounts count_workload(const workload::WorkloadConfig& config) {
  workload::WorkloadGenerator gen(config);
  PreCounts pre;
  while (std::optional<runtime::JobSpec> spec = gen.next()) {
    ++pre.submitted;
    if (spec->deadline.value() > 0.0) ++pre.deadline_jobs;
    pre.last_arrival_s = spec->arrival.value();
  }
  return pre;
}

/// JobSource wrapper timing every pull (the `workload` layer).
class TimedJobSource final : public runtime::JobSource {
 public:
  explicit TimedJobSource(runtime::JobSource& inner) : inner_(&inner) {}

  std::optional<runtime::JobSpec> next() override {
    const auto start = WallClock::now();
    std::optional<runtime::JobSpec> spec = inner_->next();
    host_s += seconds_since(start);
    if (spec) ++specs;
    return spec;
  }

  std::uint64_t specs = 0;
  double host_s = 0.0;

 private:
  runtime::JobSource* inner_;
};

/// FaultSource wrapper timing every pull (the `faults` layer's draws).
class TimedFaultSource final : public runtime::FaultSource {
 public:
  explicit TimedFaultSource(runtime::FaultSource& inner) : inner_(&inner) {}

  std::optional<runtime::FaultSpec> next() override {
    const auto start = WallClock::now();
    std::optional<runtime::FaultSpec> fault = inner_->next();
    host_s += seconds_since(start);
    return fault;
  }

  double host_s = 0.0;

 private:
  runtime::FaultSource* inner_;
};

/// The objects set-up builds: generator, fault injector, runtime.
struct Served {
  std::unique_ptr<workload::WorkloadGenerator> source;
  std::unique_ptr<runtime::FaultInjector> injector;
  std::unique_ptr<runtime::CollectiveRuntime> runtime;
};

Served set_up(const Workload& w) {
  Served s;
  s.source = std::make_unique<workload::WorkloadGenerator>(w.jobs);
  runtime::RuntimeConfig config = w.runtime;
  if (w.faults) {
    s.injector = std::make_unique<runtime::FaultInjector>(
        s.source->make_fault_injector());
    config.faults = s.injector.get();
  }
  s.runtime = std::make_unique<runtime::CollectiveRuntime>(config);
  return s;
}

/// FNV-1a over every modelled quantity of the run.  Audit bookkeeping
/// (replay_checked_steps) is left out: the no_audit ablation changes it and
/// nothing else.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t digest_of(const runtime::CollectiveRuntime& rt,
                        const runtime::RuntimeReport& r) {
  Digest d;
  d.add(r.makespan.value());
  for (const std::uint64_t v :
       {std::uint64_t{r.submitted}, std::uint64_t{r.completed},
        std::uint64_t{r.rejected}, std::uint64_t{r.executions},
        std::uint64_t{r.batches}, r.total_steps, r.total_retunes,
        r.spectrum_reservations, std::uint64_t{r.peak_concurrent_jobs},
        std::uint64_t{r.oracle_failures}, std::uint64_t{r.preemptions},
        std::uint64_t{r.resumes}, std::uint64_t{r.resizes}, r.step_retimes,
        std::uint64_t{r.routing.decisions}, std::uint64_t{r.faults.injected},
        std::uint64_t{r.faults.evictions}, std::uint64_t{r.faults.restarts},
        std::uint64_t{r.faults.migrations},
        std::uint64_t{r.faults.killed_jobs}}) {
    d.add(v);
  }
  d.add(r.faults.wasted_step_time.value());
  d.add(r.step_time_total.value());
  for (const runtime::JobRecord& rec : rt.records()) {
    d.add(std::uint64_t{rec.id});
    d.add(static_cast<std::uint64_t>(rec.state));
    d.add(static_cast<std::uint64_t>(rec.substrate));
    d.add((std::uint64_t{rec.band.base} << 32) | rec.band.width);
    d.add(rec.admitted.value());
    d.add(rec.completed.value());
    d.add((std::uint64_t{rec.steps} << 32) | rec.batch_size);
  }
  for (const runtime::JobId id : rt.completion_order()) d.add(std::uint64_t{id});
  return d.value();
}

void print_array(const char* key, const std::vector<double>& values) {
  std::printf(",\"%s\":[", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf(i == 0 ? "%.17g" : ",%.17g", values[i]);
  }
  std::printf("]");
}

void print_number(const char* key, double value) {
  std::printf(",\"%s\":%.17g", key, value);
}

/// Fields every serving mode prints: the ledger, the digest, host time.
void print_common(const runtime::CollectiveRuntime& rt,
                  const runtime::RuntimeReport& r, double serve_s) {
  bool all_oracle_ok = true;
  for (const runtime::JobRecord& rec : rt.records()) {
    if (rec.state == runtime::JobState::kDone && !rec.oracle_ok) {
      all_oracle_ok = false;
    }
  }
  std::printf(",\"digest\":\"%016llx\"",
              static_cast<unsigned long long>(digest_of(rt, r)));
  print_number("submitted", r.submitted);
  print_number("completed", r.completed);
  print_number("rejected", r.rejected);
  print_number("killed", r.faults.killed_jobs);
  print_number("oracle_failures", r.oracle_failures);
  std::printf(",\"all_oracle_ok\":%s", all_oracle_ok ? "true" : "false");
  print_number("serve_s", serve_s);
  print_number("rss_kb", static_cast<double>(peak_rss_kb()));
  print_number("total_steps", static_cast<double>(r.total_steps));
}

/// Untraced run with the default checks: set-up timing, modelled outcome,
/// per-job samples.
void run_default(const Workload& w) {
  std::uint64_t check = 0;
  const double calibration_s = calibration_kernel_s(check);
  std::vector<double> setup_s;
  Served served;
  for (int i = 0; i < kSetupSamples; ++i) {
    // Build a batch into empty slots so no teardown lands in the timing.
    std::vector<Served> batch(kSetupBatch);
    const auto start = WallClock::now();
    for (Served& slot : batch) slot = set_up(w);
    setup_s.push_back(seconds_since(start) / kSetupBatch);
    served = std::move(batch.back());
  }
  const auto start = WallClock::now();
  const runtime::RuntimeReport r = served.runtime->serve(*served.source);
  const double serve_s = seconds_since(start);

  std::vector<double> turnaround;
  std::vector<double> service;
  std::uint64_t deadline_hits = 0;
  for (const runtime::JobRecord& rec : served.runtime->records()) {
    if (rec.state != runtime::JobState::kDone) continue;
    turnaround.push_back(rec.turnaround().value());
    service.push_back((rec.completed - rec.admitted).value());
    const double deadline = rec.spec.deadline.value();
    if (deadline > 0.0 && rec.turnaround().value() <= deadline) {
      ++deadline_hits;
    }
  }
  std::printf("{\"mode\":\"run\"");
  print_common(*served.runtime, r, serve_s);
  print_number("makespan_s", r.makespan.value());
  print_number("deadline_hits", static_cast<double>(deadline_hits));
  print_number("wasted_step_s", r.faults.wasted_step_time.value());
  print_number("step_time_s", r.step_time_total.value());
  print_number("calibration_s", calibration_s);
  print_number("calibration_check", static_cast<double>(check % 1000));
  print_array("setup_s", setup_s);
  print_array("turnaround_s", turnaround);
  print_array("service_s", service);
  std::printf("}\n");
}

/// Untraced run with one check switched off.
void run_ablation(Workload w, Mode mode) {
  if (mode == Mode::kNoOracle) w.runtime.validate_with_oracle = false;
  if (mode == Mode::kNoAudit) w.runtime.electrical.replay_audit = false;
  Served served = set_up(w);
  const auto start = WallClock::now();
  const runtime::RuntimeReport r = served.runtime->serve(*served.source);
  const double serve_s = seconds_since(start);
  std::printf("{\"mode\":\"%s\"",
              mode == Mode::kNoOracle ? "no_oracle" : "no_audit");
  print_common(*served.runtime, r, serve_s);
  std::printf("}\n");
}

std::uint64_t counter_value(const obs::MetricsRegistry& registry,
                            const std::string& name) {
  const obs::Counter* c = registry.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

/// Host time of layer entry points replayed over the run's own records.
struct Replay {
  std::uint64_t builds = 0;
  double build_s = 0.0;
  std::uint64_t proofs = 0;
  std::uint64_t proof_failures = 0;
  double proof_s = 0.0;
  std::uint64_t span_calls = 0;
  std::uint64_t span_visits = 0;
  double span_s = 0.0;
  std::uint64_t spectrum_ops = 0;
  double spectrum_s = 0.0;
  std::uint64_t flow_steps = 0;
  double flow_s = 0.0;
};

Replay replay_layers(const Workload& w,
                     const std::vector<runtime::JobRecord>& records) {
  Replay out;
  const topo::RingTopology ring(kRingSize);
  optical::SpectrumMap spectrum(ring, kWavelengths);
  const runtime::ElectricalFallbackConfig& ef = w.runtime.electrical;
  const std::optional<elec::ElectricalCluster> cluster =
      elec::ElectricalCluster::two_level_tree(kRingSize, ef.hosts_per_tor,
                                              ef.oversubscription, ef.link);
  WRHT_CHECK(cluster.has_value(), "servebench: bad replay cluster shape");

  for (const runtime::JobRecord& rec : records) {
    if (rec.state != runtime::JobState::kDone) continue;
    const std::vector<topo::NodeId>& participants = rec.spec.participants;
    if (rec.substrate == runtime::SubstrateKind::kElectrical) {
      const coll::Schedule schedule = coll::ring_allreduce(
          static_cast<std::uint32_t>(participants.size()));
      const auto start = WallClock::now();
      const elec::ElecRunResult run =
          elec::run_on_electrical(schedule, *cluster, rec.spec.payload);
      out.flow_s += seconds_since(start);
      out.flow_steps += run.step_durations.size();
      continue;
    }
    if (!rec.band.valid()) continue;

    core::WrhtParams params;
    params.num_wavelengths = rec.band.width;
    auto start = WallClock::now();
    const core::WrhtBuild build =
        core::build_wrht_among(participants, kRingSize, params);
    out.build_s += seconds_since(start);
    ++out.builds;

    start = WallClock::now();
    const coll::OracleResult proof = coll::Oracle::verify_allreduce_among(
        build.annotated.schedule, participants,
        w.runtime.oracle_payload_len);
    out.proof_s += seconds_since(start);
    ++out.proofs;
    if (!proof.ok) ++out.proof_failures;

    start = WallClock::now();
    for (const std::vector<core::PathAssignment>& step : build.annotated.paths) {
      for (const core::PathAssignment& path : step) {
        out.span_visits += ring.spans(path.arc).size();
        ++out.span_calls;
      }
    }
    out.span_s += seconds_since(start);

    // Claim then free each step's cells at the band's offset, as the
    // optical substrate does around every step.
    start = WallClock::now();
    for (const std::vector<core::PathAssignment>& step : build.annotated.paths) {
      for (const core::PathAssignment& path : step) {
        for (const optical::WavelengthId lambda : path.lambdas) {
          spectrum.reserve(path.arc, rec.band.base + lambda);
          ++out.spectrum_ops;
        }
      }
      for (const core::PathAssignment& path : step) {
        for (const optical::WavelengthId lambda : path.lambdas) {
          spectrum.release(path.arc, rec.band.base + lambda);
          ++out.spectrum_ops;
        }
      }
    }
    out.spectrum_s += seconds_since(start);
  }
  return out;
}

/// Traced run: registry, trace, timing wrappers, then layer replays.
void run_traced(const Workload& w) {
  obs::MetricsRegistry registry;
  workload::WorkloadGenerator generator(w.jobs);
  TimedJobSource source(generator);
  std::unique_ptr<runtime::FaultInjector> injector;
  std::unique_ptr<TimedFaultSource> faults;
  if (w.faults) {
    injector = std::make_unique<runtime::FaultInjector>(
        generator.make_fault_injector());
    faults = std::make_unique<TimedFaultSource>(*injector);
  }
  runtime::RuntimeConfig config = w.runtime;
  config.metrics = &registry;
  config.faults = faults.get();
  runtime::CollectiveRuntime rt(config);
  rt.trace().enable();

  const auto start = WallClock::now();
  const runtime::RuntimeReport r = rt.serve(source);
  const double serve_s = seconds_since(start);
  const Replay replay = replay_layers(w, rt.records());

  std::vector<double> admission_wait;
  for (const runtime::JobRecord& rec : rt.records()) {
    if (rec.state != runtime::JobState::kDone) continue;
    admission_wait.push_back((rec.admitted - rec.spec.arrival).value());
  }

  std::printf("{\"mode\":\"traced\"");
  print_common(rt, r, serve_s);
  print_number("workload_specs", static_cast<double>(source.specs));
  print_number("workload_host_s", source.host_s);
  print_number("faults_host_s", faults ? faults->host_s : 0.0);
  for (const char* name :
       {"runtime.jobs_fused", "spectrum.band_allocations",
        "spectrum.band_grows", "spectrum.band_shrinks", "optical.retunes",
        "optical.cell_reservations"}) {
    print_number(name, static_cast<double>(counter_value(registry, name)));
  }
  print_number("optical_steps", static_cast<double>(r.optical.steps));
  print_number("executions", r.executions);
  print_number("preemptions", r.preemptions);
  print_number("resumes", r.resumes);
  print_number("resizes", r.resizes);
  print_number("routing_decisions", r.routing.decisions);
  print_number("routing_error_sum",
               r.routing.mean_error * static_cast<double>(r.routing.decisions));
  print_number("electrical_jobs", r.electrical.jobs);
  print_number("electrical_steps", static_cast<double>(r.electrical.steps));
  print_number("electrical_busy_s", r.electrical.busy_time.value());
  print_number("electrical_quiet_s", r.electrical.quiet_time.value());
  print_number("step_retimes", static_cast<double>(r.step_retimes));
  print_number("replay_checked_steps",
               static_cast<double>(r.replay_checked_steps));
  print_number("faults_injected", r.faults.injected);
  print_number("faults_evictions", r.faults.evictions);
  print_number("faults_restarts", r.faults.restarts);
  print_number("faults_migrations", r.faults.migrations);
  print_number("faults_recoveries", r.faults.recoveries);
  print_number("faults_recovery_s", r.faults.total_recovery.value());
  print_number("wasted_step_s", r.faults.wasted_step_time.value());
  print_number("trace_events", static_cast<double>(rt.trace().events().size()));
  print_number("replay_builds", static_cast<double>(replay.builds));
  print_number("replay_build_s", replay.build_s);
  print_number("replay_proofs", static_cast<double>(replay.proofs));
  print_number("replay_proof_failures",
               static_cast<double>(replay.proof_failures));
  print_number("replay_proof_s", replay.proof_s);
  print_number("replay_span_calls", static_cast<double>(replay.span_calls));
  print_number("replay_span_visits", static_cast<double>(replay.span_visits));
  print_number("replay_span_s", replay.span_s);
  print_number("replay_spectrum_ops", static_cast<double>(replay.spectrum_ops));
  print_number("replay_spectrum_s", replay.spectrum_s);
  print_number("replay_flow_steps", static_cast<double>(replay.flow_steps));
  print_number("replay_flow_s", replay.flow_s);
  print_array("admission_wait_s", admission_wait);
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("One servebench episode (driven by servebench/run.py).");
  cli.add_flag("workload", "optical_default",
               "optical_default | hybrid_shared | chaos_renegotiate");
  cli.add_flag("seed", "1", "episode seed (derived from the run seed)");
  cli.add_flag("jobs", "1000", "jobs in the episode");
  cli.add_flag("mode", "run", "run | traced | no_oracle | no_audit | abort");
  if (!cli.parse(argc, argv)) return 2;

  const std::optional<Mode> mode = parse_mode(cli.get_string("mode"));
  const std::int64_t jobs = cli.get_int("jobs");
  std::optional<Workload> w =
      make_workload(cli.get_string("workload"),
                    static_cast<std::uint64_t>(cli.get_int("seed")),
                    static_cast<std::uint64_t>(std::max<std::int64_t>(jobs, 0)));
  if (!mode || !w || jobs < 1) {
    std::fprintf(stderr, "servebench_episode: bad arguments\n%s",
                 cli.usage().c_str());
    return 2;
  }

  const PreCounts pre = count_workload(w->jobs);
  // Faults run over the whole arrival span and stop with it.
  if (w->faults) w->jobs.fault_horizon = util::Seconds(pre.last_arrival_s);
  std::printf("{\"pre\":true,\"submitted\":%llu,\"deadline_jobs\":%llu}\n",
              static_cast<unsigned long long>(pre.submitted),
              static_cast<unsigned long long>(pre.deadline_jobs));
  std::fflush(stdout);

  switch (*mode) {
    case Mode::kRun:
      run_default(*w);
      break;
    case Mode::kTraced:
      run_traced(*w);
      break;
    case Mode::kNoOracle:
    case Mode::kNoAudit:
      run_ablation(*w, *mode);
      break;
    case Mode::kAbort:
      WRHT_CHECK(false, "servebench self-test: forced abort");
      break;
  }
  return 0;
}
