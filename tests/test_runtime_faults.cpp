// Faults as renegotiation events: the seeded injector's determinism and
// domain independence, every failure-domain recovery path through the
// runtime (transceiver evict / node-loss kill / wavelength shrink / ToR
// migration / repair), and the chaos-schedule trace round-trip.  Each
// scenario completing with zero oracle failures is itself the correctness
// statement — every post-fault remainder is re-proven by the composite
// prefix+remainder oracle inside the runtime.
#include "runtime/faults.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "workload/generator.hpp"
#include "workload/trace_io.hpp"

namespace wrht {
namespace {

using runtime::FaultDomain;
using runtime::FaultInjector;
using runtime::FaultInjectorConfig;
using runtime::FaultSpec;
using runtime::ScriptedFaultSource;

std::vector<FaultSpec> drain(runtime::FaultSource& source) {
  std::vector<FaultSpec> faults;
  while (std::optional<FaultSpec> fault = source.next()) {
    faults.push_back(*fault);
  }
  return faults;
}

bool same_fault(const FaultSpec& a, const FaultSpec& b) {
  return a.domain == b.domain && a.subject == b.subject && a.at == b.at &&
         a.repair_after == b.repair_after;
}

FaultInjectorConfig chaos_config() {
  FaultInjectorConfig fc;
  fc.seed = 42;
  fc.horizon = util::Seconds(2.0);
  fc.transceiver_mtbf = util::Seconds(0.2);
  fc.node_mtbf = util::Seconds(0.25);
  fc.tor_mtbf = util::Seconds(0.5);
  fc.wavelength_mtbf = util::Seconds(0.3);
  fc.mttr = util::Seconds(0.02);
  fc.ring_size = 16;
  fc.num_wavelengths = 8;
  fc.num_tors = 2;
  return fc;
}

TEST(FaultInjector, DeterministicOrderedAndInRange) {
  FaultInjector a(chaos_config());
  FaultInjector b(chaos_config());
  const std::vector<FaultSpec> first = drain(a);
  const std::vector<FaultSpec> second = drain(b);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  util::Seconds last{0.0};
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(same_fault(first[i], second[i])) << "diverges at fault " << i;
    EXPECT_GE(first[i].at, last);
    last = first[i].at;
    EXPECT_LT(first[i].at, util::Seconds(2.0));
    EXPECT_GT(first[i].repair_after, util::Seconds(0.0));  // mttr > 0
    switch (first[i].domain) {
      case FaultDomain::kTransceiver:
      case FaultDomain::kNode:
        EXPECT_LT(first[i].subject, 16u);
        break;
      case FaultDomain::kTor:
        EXPECT_LT(first[i].subject, 2u);
        break;
      case FaultDomain::kWavelength:
        EXPECT_LT(first[i].subject, 8u);
        break;
    }
  }
}

TEST(FaultInjector, DomainStreamsAreIndependent) {
  // A domain's fault stream must be byte-identical for a given seed no
  // matter which OTHER domains are enabled — each domain draws from its own
  // derived-seed Rng, the same replay discipline the workload keeps.
  FaultInjectorConfig node_only = chaos_config();
  node_only.transceiver_mtbf = util::Seconds(0.0);
  node_only.tor_mtbf = util::Seconds(0.0);
  node_only.wavelength_mtbf = util::Seconds(0.0);
  FaultInjector isolated(node_only);
  FaultInjector merged(chaos_config());

  std::vector<FaultSpec> node_faults;
  for (const FaultSpec& fault : drain(merged)) {
    if (fault.domain == FaultDomain::kNode) node_faults.push_back(fault);
  }
  const std::vector<FaultSpec> alone = drain(isolated);
  ASSERT_EQ(alone.size(), node_faults.size());
  for (std::size_t i = 0; i < alone.size(); ++i) {
    EXPECT_TRUE(same_fault(alone[i], node_faults[i])) << "fault " << i;
  }
}

TEST(FaultInjector, ZeroHorizonAndScriptedReplay) {
  FaultInjectorConfig off = chaos_config();
  off.horizon = util::Seconds(0.0);
  FaultInjector silent(off);
  EXPECT_FALSE(silent.next());

  const std::vector<FaultSpec> script = {
      {FaultDomain::kNode, 3, util::Seconds(0.5), util::Seconds(0.1)},
      {FaultDomain::kWavelength, 1, util::Seconds(0.75), util::Seconds(0.0)},
  };
  ScriptedFaultSource replay(script);
  const std::vector<FaultSpec> out = drain(replay);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(same_fault(out[0], script[0]));
  EXPECT_TRUE(same_fault(out[1], script[1]));
}

runtime::JobSpec span_job(std::uint32_t first, std::uint32_t count,
                          util::Bytes payload, util::Seconds arrival = {}) {
  runtime::JobSpec spec;
  for (std::uint32_t i = 0; i < count; ++i) {
    spec.participants.push_back(first + i);
  }
  spec.payload = payload;
  spec.arrival = arrival;
  return spec;
}

TEST(FaultRecovery, TransceiverLossEvictsOrRestartsAndStillCompletes) {
  // One optical tenant loses a participant's optics mid-run.  The runtime
  // must carry the job to completion anyway — survivor rebuild on the same
  // band when the failed node's contribution is already merged, a restart
  // among the survivors otherwise — and the composite oracle re-proves the
  // executed prefix + post-fault remainder.
  runtime::RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.batcher.enabled = false;
  ScriptedFaultSource faults({
      {FaultDomain::kTransceiver, 5, util::microseconds(5.0),
       util::Seconds(0.0)},
  });
  config.faults = &faults;

  runtime::CollectiveRuntime rt(config);
  const runtime::JobId id = rt.submit(span_job(0, 12, util::megabytes(32)));
  const runtime::RuntimeReport report = rt.run();

  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.oracle_failures, 0u);
  EXPECT_EQ(report.faults.injected, 1u);
  EXPECT_EQ(report.faults.transceiver_faults, 1u);
  EXPECT_GE(report.faults.disrupted_executions, 1u);
  EXPECT_GE(report.faults.evictions + report.faults.restarts, 1u);
  EXPECT_GE(report.faults.recoveries, 1u);
  EXPECT_GT(report.faults.mttr(), util::Seconds(0.0));
  EXPECT_EQ(rt.record(id).state, runtime::JobState::kDone);
  EXPECT_TRUE(rt.record(id).oracle_ok);
  // Goodput only drops when the disruption forced a prefix discard.
  EXPECT_LE(report.goodput(), 1.0);
  EXPECT_GT(report.goodput(), 0.0);
}

TEST(FaultRecovery, EvictionAndGrowAtTheSameBoundaryStayCorrect) {
  // A node fault and an elastic grow land on the same step boundary: the
  // eviction installs a fresh remainder, and the grow rebuilds that
  // remainder again before its first step.  The regrown schedule must
  // reduce over the representatives that already hold the merged partials
  // — re-reducing the original participants counts every contribution
  // twice and the composite oracle aborts the run.
  runtime::RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.batcher.enabled = false;
  config.elastic_resize = true;
  ScriptedFaultSource faults({
      {FaultDomain::kNode, 0, util::microseconds(5.0), util::Seconds(0.0)},
  });
  config.faults = &faults;

  runtime::CollectiveRuntime rt(config);
  runtime::JobSpec spec = span_job(0, 12, util::megabytes(32));
  spec.requested_wavelengths = 1;  // a narrow start leaves room to grow
  const runtime::JobId id = rt.submit(spec);
  const runtime::RuntimeReport report = rt.run();

  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.oracle_failures, 0u);
  EXPECT_EQ(report.faults.evictions, 1u);
  EXPECT_EQ(report.faults.restarts, 0u);
  EXPECT_GE(report.resizes, 1u);
  EXPECT_EQ(rt.record(id).state, runtime::JobState::kDone);
  EXPECT_TRUE(rt.record(id).oracle_ok);
}

TEST(FaultRecovery, QuorumLossKillsTheJobAndClosesTheLedger) {
  // Five of six participants die permanently during the first step (the
  // collective has a later boundary left, so the loss is detected): fewer
  // than 2 survivors means no collective to finish.  The job must end
  // kFailed — not hang, not complete — and the ledger must close through
  // killed_jobs.
  runtime::RuntimeConfig config;
  config.ring_size = 8;
  config.optical.wdm.num_wavelengths = 4;
  config.batcher.enabled = false;
  std::vector<FaultSpec> deaths;
  for (std::uint32_t node = 0; node < 5; ++node) {
    deaths.push_back({FaultDomain::kNode, node, util::milliseconds(1.0),
                      util::Seconds(0.0)});
  }
  ScriptedFaultSource faults(deaths);
  config.faults = &faults;

  runtime::CollectiveRuntime rt(config);
  rt.trace().enable();
  const runtime::JobId id = rt.submit(span_job(0, 6, util::megabytes(16)));
  const runtime::RuntimeReport report = rt.run();

  EXPECT_EQ(report.faults.node_faults, 5u);
  EXPECT_EQ(report.faults.killed_jobs, 1u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(rt.record(id).state, runtime::JobState::kFailed);
  // completed + rejected + killed == submitted: nothing leaks.
  EXPECT_EQ(report.completed + report.rejected + report.faults.killed_jobs,
            report.submitted);

  bool saw_kill = false;
  for (const sim::TraceEvent& e : rt.trace().events()) {
    if (e.kind == sim::TraceKind::kJobKilled &&
        e.a == static_cast<std::int64_t>(id)) {
      saw_kill = true;
    }
  }
  EXPECT_TRUE(saw_kill);
}

TEST(FaultRecovery, WavelengthDegradeShrinksToTheHealthyPrefix) {
  // A wavelength inside the tenant's band degrades permanently.  At the next
  // boundary the band shrinks to the healthy prefix (a kShrink through the
  // same renegotiation entry point elastic resize uses) and the job finishes
  // on the narrower band.
  runtime::RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.batcher.enabled = false;
  ScriptedFaultSource faults({
      {FaultDomain::kWavelength, 6, util::milliseconds(1.0),
       util::Seconds(0.0)},
  });
  config.faults = &faults;

  runtime::CollectiveRuntime rt(config);
  runtime::JobSpec spec = span_job(0, 12, util::megabytes(64));
  spec.requested_wavelengths = 8;
  spec.min_wavelengths = 1;
  const runtime::JobId id = rt.submit(spec);
  const runtime::RuntimeReport report = rt.run();

  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.oracle_failures, 0u);
  EXPECT_EQ(report.faults.wavelength_faults, 1u);
  EXPECT_GE(report.resizes, 1u);
  EXPECT_EQ(rt.record(id).state, runtime::JobState::kDone);
  EXPECT_LE(rt.record(id).band.width, 6u);
  EXPECT_GE(rt.record(id).resizes, 1u);
}

TEST(FaultRecovery, TorLossMigratesTheTenantToTheOpticalRing) {
  // An electrically-placed (but unpinned) tenant loses its whole ToR.  With
  // free spectrum available the runtime migrates it cross-substrate: a
  // kRestart renegotiation against the OPTICAL substrate at the next step
  // boundary.  The record's substrate flips and the trace carries the
  // migration event.
  runtime::RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.batcher.enabled = false;
  config.placement = runtime::HybridPlacementPolicy::kElectricalOverflow;
  config.electrical.fabric = runtime::ElectricalFabric::kTwoLevelShared;
  config.electrical.hosts_per_tor = 8;
  ScriptedFaultSource faults({
      {FaultDomain::kTor, 0, util::milliseconds(1.0), util::Seconds(0.0)},
  });
  config.faults = &faults;

  runtime::CollectiveRuntime rt(config);
  rt.trace().enable();
  // A short optical hog holds the whole spectrum at t=0, so the second
  // arrival overflows to the electrical fabric; by the time the ToR dies
  // the hog is long done and the ring has room for the migrant.
  runtime::JobSpec hog = span_job(0, 12, util::kilobytes(64));
  hog.requested_wavelengths = 8;
  hog.min_wavelengths = 8;
  hog.pin = runtime::SubstratePin::kOpticalOnly;
  rt.submit(hog);
  const runtime::JobId migrant =
      rt.submit(span_job(0, 6, util::megabytes(64), util::microseconds(1.0)));
  const runtime::RuntimeReport report = rt.run();

  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.oracle_failures, 0u);
  EXPECT_EQ(report.faults.tor_faults, 1u);
  EXPECT_GE(report.faults.migrations, 1u);
  EXPECT_EQ(rt.record(migrant).substrate, runtime::SubstrateKind::kOptical);
  EXPECT_EQ(rt.record(migrant).state, runtime::JobState::kDone);

  bool saw_migrate = false;
  for (const sim::TraceEvent& e : rt.trace().events()) {
    if (e.kind == sim::TraceKind::kJobMigrate &&
        e.a == static_cast<std::int64_t>(migrant)) {
      saw_migrate = true;
    }
  }
  EXPECT_TRUE(saw_migrate);
}

TEST(FaultRecovery, RepairsRestoreServiceAndAreCounted) {
  // Injection and repair bracket a borrow of the unit: both sides must land
  // in the stats even when the faults never touch a running execution.
  runtime::RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.batcher.enabled = false;
  ScriptedFaultSource faults({
      {FaultDomain::kWavelength, 2, util::microseconds(1.0),
       util::microseconds(3.0)},
      {FaultDomain::kTransceiver, 9, util::microseconds(2.0),
       util::microseconds(5.0)},
  });
  config.faults = &faults;

  runtime::CollectiveRuntime rt(config);
  const runtime::RuntimeReport report = rt.run();
  EXPECT_EQ(report.faults.injected, 2u);
  EXPECT_EQ(report.faults.repairs, 2u);
  EXPECT_EQ(report.faults.disrupted_executions, 0u);
  EXPECT_EQ(report.goodput(), 1.0);
  EXPECT_EQ(report.faults.mttr(), util::Seconds(0.0));
}

TEST(FaultRecovery, FaultStreamStopsWithTheWorkload) {
  // A fault horizon far past the last job must not keep the clock running:
  // once the source is exhausted and nothing is queued, running or
  // suspended, the runtime stops pulling faults.  The jobs see exactly what
  // a short-horizon run gives them.
  struct Served {
    std::string report;
    std::vector<runtime::JobId> order;
    std::vector<runtime::JobRecord> records;
  };
  const auto serve = [](util::Seconds horizon) {
    workload::WorkloadConfig w;
    w.seed = 5;
    w.num_jobs = 120;
    w.ring_size = 16;
    w.mean_rate = 400.0;
    w.max_participants = 8;
    w.fault_horizon = horizon;
    w.transceiver_mtbf = util::Seconds(0.05);
    w.node_mtbf = util::Seconds(0.08);
    w.wavelength_mtbf = util::Seconds(0.06);
    w.fault_mttr = util::Seconds(0.01);
    w.fault_num_wavelengths = 8;
    workload::WorkloadGenerator source(w);
    runtime::FaultInjector injector = source.make_fault_injector();
    runtime::RuntimeConfig config;
    config.ring_size = 16;
    config.optical.wdm.num_wavelengths = 8;
    config.faults = &injector;
    runtime::CollectiveRuntime rt(config);
    Served out;
    out.report = rt.serve(source).to_string();
    out.order = rt.completion_order();
    out.records = rt.records();
    return out;
  };
  const Served bounded = serve(util::Seconds(10.0));
  const Served endless = serve(util::Seconds(1e9));
  EXPECT_EQ(endless.report, bounded.report);
  EXPECT_EQ(endless.order, bounded.order);
  ASSERT_EQ(endless.records.size(), bounded.records.size());
  for (std::size_t i = 0; i < bounded.records.size(); ++i) {
    const runtime::JobRecord& a = bounded.records[i];
    const runtime::JobRecord& b = endless.records[i];
    EXPECT_EQ(a.state, b.state) << "job " << i;
    EXPECT_EQ(a.admitted, b.admitted) << "job " << i;
    EXPECT_EQ(a.completed, b.completed) << "job " << i;
    EXPECT_EQ(a.band, b.band) << "job " << i;
    EXPECT_EQ(a.steps, b.steps) << "job " << i;
    EXPECT_EQ(a.preemptions, b.preemptions) << "job " << i;
  }
}

TEST(FaultTrace, RoundTripsByteStableAndReplaysThroughTheReader) {
  // Record-then-replay for chaos schedules: the injector's stream written
  // twice is byte-identical, the reader parses it back field-for-field, and
  // re-recording the parsed stream reproduces the original bytes (so a
  // recorded chaos run replays exactly, the same property job traces have).
  const FaultInjectorConfig fc = chaos_config();
  std::ostringstream first_out;
  std::ostringstream second_out;
  FaultInjector first(fc);
  FaultInjector second(fc);
  const std::uint64_t written =
      workload::record_fault_trace(first, first_out);
  workload::record_fault_trace(second, second_out);
  ASSERT_GT(written, 0u);
  EXPECT_EQ(first_out.str(), second_out.str());

  std::istringstream in(first_out.str());
  workload::FaultTraceReader reader(in);
  const std::vector<FaultSpec> parsed = drain(reader);
  EXPECT_EQ(reader.read(), written);
  FaultInjector reference(fc);
  const std::vector<FaultSpec> expected = drain(reference);
  ASSERT_EQ(parsed.size(), expected.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_TRUE(same_fault(parsed[i], expected[i])) << "fault " << i;
  }

  ScriptedFaultSource replay(parsed);
  std::ostringstream third_out;
  workload::record_fault_trace(replay, third_out);
  EXPECT_EQ(third_out.str(), first_out.str());
}

TEST(WorkloadFaults, ChaosConfigNeverPerturbsTheJobStream) {
  // The whole point of the derived-seed injector: switching chaos on (or
  // retuning it) must leave the emitted job trace byte-identical, because
  // the fault process never draws from the job stream's Rng.
  workload::WorkloadConfig calm;
  calm.seed = 7;
  calm.num_jobs = 200;
  workload::WorkloadConfig chaotic = calm;
  chaotic.fault_horizon = util::Seconds(5.0);
  chaotic.node_mtbf = util::Seconds(0.1);
  chaotic.wavelength_mtbf = util::Seconds(0.2);
  chaotic.fault_mttr = util::Seconds(0.01);
  chaotic.fault_num_wavelengths = 8;
  chaotic.fault_num_tors = 2;

  std::ostringstream calm_out;
  std::ostringstream chaotic_out;
  workload::WorkloadGenerator calm_gen(calm);
  workload::WorkloadGenerator chaotic_gen(chaotic);
  workload::record_trace(calm_gen, calm_out, workload::TraceFormat::kJsonl);
  workload::record_trace(chaotic_gen, chaotic_out,
                         workload::TraceFormat::kJsonl);
  EXPECT_EQ(calm_out.str(), chaotic_out.str());

  // And the minted injector is itself deterministic per workload seed.
  workload::WorkloadGenerator again(chaotic);
  FaultInjector a = chaotic_gen.make_fault_injector();
  FaultInjector b = again.make_fault_injector();
  const std::vector<FaultSpec> one = drain(a);
  const std::vector<FaultSpec> two = drain(b);
  ASSERT_FALSE(one.empty());
  ASSERT_EQ(one.size(), two.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(same_fault(one[i], two[i])) << "fault " << i;
  }
  // The chaos seed is a derivation, not the workload seed itself.
  EXPECT_NE(chaotic_gen.fault_injector_config().seed, chaotic.seed);
}

}  // namespace
}  // namespace wrht
