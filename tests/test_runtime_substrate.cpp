// The pluggable execution substrates behind the multi-tenant runtime:
// electrical-overflow placement correctness (every electrically-placed job
// passes the functional oracle), per-substrate report accounting, hybrid
// cost-model routing, host-link exclusivity on the fallback fabric, and —
// because the optical path now runs behind the same interface — proof that
// preemption and elastic resize behave exactly as before.
#include "runtime/substrate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/runtime.hpp"

namespace wrht::runtime {
namespace {

JobSpec span_job(std::uint32_t first, std::uint32_t count,
                 util::Bytes payload, util::Seconds arrival = {}) {
  JobSpec spec;
  for (std::uint32_t i = 0; i < count; ++i) {
    spec.participants.push_back(first + i);
  }
  spec.payload = payload;
  spec.arrival = arrival;
  return spec;
}

RuntimeConfig hybrid_config(HybridPlacementPolicy placement) {
  RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 16;
  config.batcher.enabled = false;
  config.placement = placement;
  return config;
}

/// Two tenants saturate the spectrum; four disjoint burst jobs arrive while
/// every wavelength is held.
void submit_saturated_mix(CollectiveRuntime& rt) {
  for (std::uint32_t t = 0; t < 2; ++t) {
    JobSpec big = span_job(t * 16, 16, util::megabytes(48));
    big.requested_wavelengths = 8;
    big.min_wavelengths = 8;
    rt.submit(big);
  }
  for (std::uint32_t b = 0; b < 4; ++b) {
    JobSpec burst = span_job(b * 8, 8, util::megabytes(1),
                             util::milliseconds(1.0));
    burst.min_wavelengths = 4;
    burst.requested_wavelengths = 4;
    rt.submit(burst);
  }
}

TEST(ElectricalOverflow, PlacedJobsPassTheOracleAndComplete) {
  CollectiveRuntime rt(
      hybrid_config(HybridPlacementPolicy::kElectricalOverflow));
  rt.trace().enable();
  submit_saturated_mix(rt);
  const RuntimeReport report = rt.run();

  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.oracle_failures, 0u);
  EXPECT_EQ(report.electrical.jobs, 4u);
  EXPECT_EQ(report.optical.jobs, 2u);

  std::uint32_t electrical_records = 0;
  for (JobId id = 0; id < rt.num_jobs(); ++id) {
    const JobRecord& r = rt.record(static_cast<JobId>(id));
    EXPECT_EQ(r.state, JobState::kDone);
    // THE correctness claim: every job — and in particular every
    // electrically-placed one — ran a schedule the functional oracle
    // proved to be an all-reduce among its participants.
    EXPECT_TRUE(r.oracle_ok);
    if (r.substrate == SubstrateKind::kElectrical) {
      ++electrical_records;
      // Electrical grants are host links; no spectrum band is held.
      EXPECT_FALSE(r.band.valid());
    } else {
      EXPECT_TRUE(r.band.valid());
    }
  }
  EXPECT_EQ(electrical_records, 4u);

  // The burst was placed at arrival (no waiting for an optical
  // completion), and the trace carries the placement verdicts.
  std::uint32_t place_optical = 0;
  std::uint32_t place_electrical = 0;
  for (const sim::TraceEvent& e : rt.trace().events()) {
    if (e.kind == sim::TraceKind::kJobPlaceOptical) ++place_optical;
    if (e.kind == sim::TraceKind::kJobPlaceElectrical) ++place_electrical;
  }
  EXPECT_EQ(place_optical, 2u);
  EXPECT_EQ(place_electrical, 4u);
  for (JobId id = 2; id < 6; ++id) {
    EXPECT_EQ(rt.record(id).admitted, util::milliseconds(1.0));
  }
}

TEST(ElectricalOverflow, BreakdownCountersSumToTheTotals) {
  CollectiveRuntime rt(
      hybrid_config(HybridPlacementPolicy::kElectricalOverflow));
  submit_saturated_mix(rt);
  const RuntimeReport report = rt.run();

  EXPECT_EQ(report.optical.jobs + report.electrical.jobs, report.completed);
  EXPECT_EQ(report.optical.executions + report.electrical.executions,
            report.executions);
  EXPECT_EQ(report.optical.steps + report.electrical.steps,
            report.total_steps);
  // Each substrate's makespan contribution is a completion time on the
  // shared clock; the later one IS the run's makespan here (every job
  // completed on one of the two).
  EXPECT_EQ(std::max(report.optical.makespan, report.electrical.makespan),
            report.makespan);
  EXPECT_GT(report.electrical.makespan, util::Seconds(0.0));
}

TEST(ElectricalOverflow, StrictlyImprovesSaturatedMakespanOverOpticalOnly) {
  CollectiveRuntime queued(hybrid_config(HybridPlacementPolicy::kOpticalOnly));
  submit_saturated_mix(queued);
  const RuntimeReport optical_only = queued.run();

  CollectiveRuntime hybrid(
      hybrid_config(HybridPlacementPolicy::kElectricalOverflow));
  submit_saturated_mix(hybrid);
  const RuntimeReport overflow = hybrid.run();

  EXPECT_EQ(optical_only.electrical.jobs, 0u);
  EXPECT_EQ(optical_only.completed, overflow.completed);
  EXPECT_LT(overflow.makespan, optical_only.makespan);
  EXPECT_LT(overflow.mean_turnaround(), optical_only.mean_turnaround());
}

TEST(ElectricalOverflow, HostExclusivitySerializesOverlappingJobs) {
  // Two overflow jobs share host 4; their access-link claims conflict, so
  // the second must wait for the first's release even though the fabric is
  // otherwise idle — the link-capacity grant model at work.
  CollectiveRuntime rt(
      hybrid_config(HybridPlacementPolicy::kElectricalOverflow));
  JobSpec blocker = span_job(0, 16, util::megabytes(64));
  blocker.min_wavelengths = 16;
  blocker.requested_wavelengths = 16;
  rt.submit(blocker);
  JobSpec first = span_job(0, 8, util::megabytes(4), util::milliseconds(1.0));
  first.min_wavelengths = 4;
  const JobId a = rt.submit(first);
  JobSpec second = span_job(4, 8, util::megabytes(4), util::milliseconds(1.0));
  second.min_wavelengths = 4;
  const JobId b = rt.submit(second);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(rt.record(a).substrate, SubstrateKind::kElectrical);
  EXPECT_EQ(rt.record(b).substrate, SubstrateKind::kElectrical);
  EXPECT_EQ(rt.record(a).admitted, util::milliseconds(1.0));
  // b waited for a's hosts, not for the optical blocker.
  EXPECT_GE(rt.record(b).admitted, rt.record(a).completed);
  EXPECT_LT(rt.record(b).admitted, rt.record(0).completed);
}

TEST(CostModelChoice, RoutesByPredictedTime) {
  // Spectrum is FREE, yet a small latency-bound job must go electrical: a
  // handful of 2.55 ms optical step overheads dwarf the electrical ring's
  // 50 us alphas.  A huge bandwidth-bound job must stay optical: five
  // 40 Gb/s wavelengths outrun the 10 Gb/s host links.
  CollectiveRuntime rt(hybrid_config(HybridPlacementPolicy::kCostModelChoice));
  JobSpec tiny = span_job(0, 8, util::kilobytes(64));
  tiny.min_wavelengths = 2;
  const JobId small_id = rt.submit(tiny);
  JobSpec huge = span_job(16, 8, util::megabytes(256));
  huge.min_wavelengths = 2;
  huge.requested_wavelengths = 8;
  const JobId big_id = rt.submit(huge);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(rt.record(small_id).substrate, SubstrateKind::kElectrical);
  EXPECT_EQ(rt.record(big_id).substrate, SubstrateKind::kOptical);
  EXPECT_TRUE(rt.record(small_id).oracle_ok);
  EXPECT_TRUE(rt.record(big_id).oracle_ok);
}

TEST(SubstrateRefactor, PreemptionStillWorksOnOpticalBehindTheInterface) {
  // The PR-2 preemption scenario, unchanged, now running through the
  // substrate interface (default optical-only placement): the victim must
  // still suspend at a boundary, the urgent arrival run, the victim resume
  // on a rebuilt remainder, and the composite oracle prove all of it.
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;

  CollectiveRuntime rt(config);
  JobSpec blocker = span_job(0, 12, util::megabytes(32));
  blocker.min_wavelengths = 8;
  blocker.requested_wavelengths = 8;
  blocker.priority = 0;
  const JobId victim = rt.submit(blocker);
  JobSpec urgent = span_job(2, 6, util::megabytes(1), util::microseconds(1.0));
  urgent.min_wavelengths = 4;
  urgent.requested_wavelengths = 4;
  urgent.priority = 5;
  const JobId vip = rt.submit(urgent);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_GE(report.preemptions, 1u);
  EXPECT_EQ(report.resumes, report.preemptions);
  EXPECT_EQ(report.electrical.jobs, 0u);  // kOpticalOnly default
  EXPECT_LT(rt.record(vip).completed, rt.record(victim).completed);
  EXPECT_TRUE(rt.record(victim).oracle_ok);
  EXPECT_EQ(rt.record(victim).state, JobState::kDone);
}

TEST(SubstrateRefactor, ElasticResizeStillWorksOnOpticalBehindTheInterface) {
  // The PR-2 grow scenario through the substrate seam: the narrow survivor
  // grows into the wide job's freed band and beats its fixed-band twin.
  auto run_once = [](bool elastic) {
    RuntimeConfig config;
    config.ring_size = 32;
    config.optical.wdm.num_wavelengths = 32;
    config.batcher.enabled = false;
    config.elastic_resize = elastic;
    CollectiveRuntime rt(config);
    JobSpec narrow = span_job(0, 24, util::megabytes(64));
    narrow.requested_wavelengths = 2;
    narrow.min_wavelengths = 2;
    rt.submit(narrow);
    JobSpec wide = span_job(8, 16, util::kilobytes(64));
    wide.requested_wavelengths = 30;
    rt.submit(wide);
    const RuntimeReport report = rt.run();
    return std::pair<util::Seconds, std::uint32_t>(report.makespan,
                                                   report.resizes);
  };
  const auto [fixed_makespan, fixed_resizes] = run_once(false);
  const auto [elastic_makespan, elastic_resizes] = run_once(true);
  EXPECT_EQ(fixed_resizes, 0u);
  EXPECT_GE(elastic_resizes, 1u);
  EXPECT_LT(elastic_makespan, fixed_makespan);
}

TEST(SubstrateRefactor, SpectrumPreemptionSparesElectricalTenants) {
  // A low-priority job runs electrically; a high-priority kAny arrival
  // whose hosts it occupies (so the arrival cannot spill) must preempt the
  // OPTICAL victim only.  The electrical substrate is preemptible now, but
  // surrendering host links would not free a wavelength — and a kAny
  // waiter never justifies evicting an electrical tenant (only pinned
  // arrivals and suspended electrical executions do).
  RuntimeConfig config = hybrid_config(
      HybridPlacementPolicy::kElectricalOverflow);
  config.policy = FairnessPolicy::kPriorityPreempt;

  CollectiveRuntime rt(config);
  JobSpec optical_victim = span_job(0, 16, util::megabytes(32));
  optical_victim.min_wavelengths = 16;
  optical_victim.requested_wavelengths = 16;
  optical_victim.priority = 0;
  const JobId victim = rt.submit(optical_victim);
  // Overflows to the electrical fabric (spectrum saturated at arrival).
  JobSpec elec_job = span_job(16, 8, util::megabytes(8),
                              util::microseconds(1.0));
  elec_job.min_wavelengths = 4;
  elec_job.priority = 0;
  const JobId spilled = rt.submit(elec_job);
  // Same hosts as the spilled job: the electrical fabric is closed to it,
  // so the priority machinery must carve spectrum out of the victim.
  JobSpec urgent = span_job(16, 6, util::megabytes(1),
                            util::milliseconds(2.0));
  urgent.min_wavelengths = 4;
  urgent.requested_wavelengths = 4;
  urgent.priority = 9;
  const JobId vip = rt.submit(urgent);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(rt.record(spilled).substrate, SubstrateKind::kElectrical);
  EXPECT_EQ(rt.record(spilled).preemptions, 0u);
  EXPECT_GE(rt.record(victim).preemptions, 1u);
  EXPECT_LT(rt.record(vip).completed, rt.record(victim).completed);
}

TEST(SubstrateRefactor, HybridRunStaysDeterministic) {
  auto run_once = []() {
    RuntimeConfig config = hybrid_config(
        HybridPlacementPolicy::kElectricalOverflow);
    config.policy = FairnessPolicy::kPriorityPreempt;
    config.elastic_resize = true;
    CollectiveRuntime rt(config);
    for (std::uint32_t i = 0; i < 10; ++i) {
      JobSpec spec = span_job((i * 3) % 16, 8 + (i % 4) * 2,
                              util::megabytes(1 + 5 * (i % 3)),
                              util::microseconds(static_cast<double>(i) * 40));
      spec.priority = static_cast<std::int32_t>(i % 3);
      rt.submit(spec);
    }
    const RuntimeReport report = rt.run();
    EXPECT_EQ(report.completed, 10u);
    EXPECT_EQ(report.oracle_failures, 0u);
    return rt.completion_order();
  };
  const std::vector<JobId> once = run_once();
  const std::vector<JobId> again = run_once();
  EXPECT_EQ(once, again);
  EXPECT_EQ(once.size(), 10u);
}

TEST(Substrate, ElectricalFactoryStandsAlone) {
  // The substrate interface is usable outside the runtime: place a job,
  // time its steps, release, place again.
  const ElectricalFallbackConfig config;
  const std::unique_ptr<ExecutionSubstrate> sub =
      make_electrical_substrate(16, config);
  EXPECT_EQ(sub->kind(), SubstrateKind::kElectrical);

  const std::vector<topo::NodeId> group{0, 1, 2, 3};
  ASSERT_TRUE(sub->can_place(group, 1));
  std::unique_ptr<SubstrateExecution> plan =
      sub->place(group, util::megabytes(1), 1);
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->num_steps(), 0u);
  EXPECT_FALSE(plan->band().valid());
  // Hosts are exclusive while held...
  EXPECT_FALSE(sub->can_place({2, 5}, 1));
  EXPECT_TRUE(sub->can_place({8, 9}, 1));

  util::Seconds clock{0.0};
  for (std::size_t s = 0; s < plan->num_steps(); ++s) {
    const StepTiming t = sub->time_step(*plan, s, clock);
    EXPECT_GT(t.end, clock);
    EXPECT_EQ(t.reservations, 0u);
    clock = t.end;
  }
  // ... and free again after release.
  sub->release(*plan, clock);
  EXPECT_TRUE(sub->can_place({2, 5}, 1));

  // Resize renegotiations refuse without touching anything; resume is the
  // preemption path's job and gets its own suite
  // (test_runtime_electrical_preempt).
  EXPECT_FALSE(
      sub->renegotiate(plan.get(), RenegotiationRequest::grow(0, 4))
          .accepted());
  EXPECT_FALSE(
      sub->renegotiate(plan.get(), RenegotiationRequest::shrink(0, 1))
          .accepted());
}

RuntimeConfig shared_fabric_config(double oversubscription,
                                   std::uint32_t hosts_per_tor) {
  RuntimeConfig config = hybrid_config(
      HybridPlacementPolicy::kElectricalOverflow);
  config.electrical.fabric = ElectricalFabric::kTwoLevelShared;
  config.electrical.hosts_per_tor = hosts_per_tor;
  config.electrical.oversubscription = oversubscription;
  return config;
}

/// Four disjoint electrically-pinned jobs, either each contained in one ToR
/// of 8 hosts (contained = true) or each straddling two ToRs of 16 hosts.
void submit_pinned_quartet(CollectiveRuntime& rt, bool contained) {
  for (std::uint32_t j = 0; j < 4; ++j) {
    JobSpec spec;
    if (contained) {
      for (std::uint32_t i = 0; i < 8; ++i) {
        spec.participants.push_back(j * 8 + i);
      }
    } else {
      for (std::uint32_t i = 0; i < 4; ++i) {
        spec.participants.push_back(j * 4 + i);
      }
      for (std::uint32_t i = 0; i < 4; ++i) {
        spec.participants.push_back(16 + j * 4 + i);
      }
    }
    spec.payload = util::megabytes(4 + 2 * j);
    spec.pin = SubstratePin::kElectricalOnly;
    rt.submit(spec);
  }
}

TEST(SharedFabricRuntime, TorContainedJobsMatchTheExclusiveStar) {
  // Disjoint jobs each inside one ToR never share a link, so the shared
  // two-level fabric must reproduce the exclusive-star timing (to fluid-
  // model precision) and report a contention slowdown of exactly 1x.
  RuntimeConfig star = hybrid_config(HybridPlacementPolicy::kElectricalOverflow);
  CollectiveRuntime star_rt(star);
  submit_pinned_quartet(star_rt, /*contained=*/true);
  const RuntimeReport star_report = star_rt.run();

  CollectiveRuntime shared_rt(shared_fabric_config(1.0, 8));
  submit_pinned_quartet(shared_rt, /*contained=*/true);
  const RuntimeReport shared_report = shared_rt.run();

  EXPECT_EQ(star_report.electrical.jobs, 4u);
  EXPECT_EQ(shared_report.electrical.jobs, 4u);
  for (JobId id = 0; id < 4; ++id) {
    const JobRecord& s = star_rt.record(id);
    const JobRecord& t = shared_rt.record(id);
    EXPECT_EQ(s.substrate, SubstrateKind::kElectrical);
    EXPECT_EQ(t.substrate, SubstrateKind::kElectrical);
    EXPECT_NEAR(t.completed.value(), s.completed.value(),
                1e-9 * std::max(1.0, s.completed.value()));
    // The star IS its own quiet network; the ToR-contained shared tenant
    // never met another tenant's flows.
    EXPECT_NEAR(s.contention_slowdown, 1.0, 1e-9);
    EXPECT_NEAR(t.contention_slowdown, 1.0, 1e-9);
  }
  EXPECT_NEAR(shared_report.makespan.value(), star_report.makespan.value(),
              1e-9 * star_report.makespan.value());
  // Every shared-fabric step was re-proven by the whole-horizon replay.
  EXPECT_EQ(shared_report.replay_checked_steps,
            shared_report.electrical.steps);
  EXPECT_EQ(star_report.replay_checked_steps, 0u);  // star has no oracle
}

TEST(SharedFabricRuntime, OversubscribedUplinksContendAndRetime) {
  // Jobs straddling both ToRs under 8:1 oversubscription fight for the
  // uplinks: every job must slow down vs. its quiet time, step-completion
  // events must have been re-scheduled as tenants joined, the uplink peak
  // utilization must show saturation, and the replay oracle must agree
  // with every incremental step time.
  CollectiveRuntime rt(shared_fabric_config(8.0, 16));
  rt.trace().enable();
  submit_pinned_quartet(rt, /*contained=*/false);
  const RuntimeReport report = rt.run();

  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.electrical.jobs, 4u);
  EXPECT_GT(report.step_retimes, 0u);
  EXPECT_EQ(report.replay_checked_steps, report.electrical.steps);
  for (JobId id = 0; id < 4; ++id) {
    EXPECT_GT(rt.record(id).contention_slowdown, 1.05)
        << "job " << id << " should have contended on the uplinks";
    EXPECT_TRUE(rt.record(id).oracle_ok);
  }
  EXPECT_GT(report.electrical.contention_slowdown(), 1.05);

  // The trace carries the retiming story.
  std::uint64_t retime_events = 0;
  for (const sim::TraceEvent& e : rt.trace().events()) {
    if (e.kind == sim::TraceKind::kStepRetimed) ++retime_events;
  }
  EXPECT_EQ(retime_events, report.step_retimes);

  // Some fabric link — an uplink — hit full utilization.
  ASSERT_FALSE(report.electrical_link_peak.empty());
  const double peak = *std::max_element(report.electrical_link_peak.begin(),
                                        report.electrical_link_peak.end());
  EXPECT_NEAR(peak, 1.0, 1e-6);

  // And the same mix on the exclusive star finishes faster: the star's
  // private host links hide exactly the contention this fabric models.
  CollectiveRuntime star_rt(
      hybrid_config(HybridPlacementPolicy::kElectricalOverflow));
  submit_pinned_quartet(star_rt, /*contained=*/false);
  const RuntimeReport star_report = star_rt.run();
  EXPECT_GT(report.makespan, star_report.makespan);
}

TEST(SharedFabricRuntime, SharedRunsStayDeterministic) {
  auto run_once = []() {
    CollectiveRuntime rt(shared_fabric_config(4.0, 16));
    for (std::uint32_t i = 0; i < 8; ++i) {
      JobSpec spec;
      for (std::uint32_t p = 0; p < 6; ++p) {
        spec.participants.push_back((i * 4 + p * 5) % 32);
      }
      std::sort(spec.participants.begin(), spec.participants.end());
      spec.participants.erase(std::unique(spec.participants.begin(),
                                          spec.participants.end()),
                              spec.participants.end());
      spec.payload = util::megabytes(1 + i % 5);
      spec.arrival = util::microseconds(static_cast<double>(i) * 150);
      spec.pin = (i % 2 == 0) ? SubstratePin::kElectricalOnly
                              : SubstratePin::kAny;
      rt.submit(spec);
    }
    const RuntimeReport report = rt.run();
    EXPECT_EQ(report.completed, 8u);
    return rt.completion_order();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SubstratePinning, PinsRouteAndRejectAsPromised) {
  // kElectricalOnly forces the fallback even when spectrum is idle;
  // kOpticalOnly keeps a job on the ring even when the fallback is idle;
  // an electrical pin without an electrical fabric is rejected at submit.
  CollectiveRuntime rt(hybrid_config(HybridPlacementPolicy::kElectricalOverflow));
  JobSpec elec = span_job(0, 8, util::megabytes(1));
  elec.pin = SubstratePin::kElectricalOnly;
  const JobId elec_id = rt.submit(elec);
  JobSpec optic = span_job(8, 8, util::megabytes(1));
  optic.pin = SubstratePin::kOpticalOnly;
  const JobId optic_id = rt.submit(optic);
  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(rt.record(elec_id).substrate, SubstrateKind::kElectrical);
  EXPECT_EQ(rt.record(optic_id).substrate, SubstrateKind::kOptical);

  CollectiveRuntime optical_only(
      hybrid_config(HybridPlacementPolicy::kOpticalOnly));
  JobSpec stranded = span_job(0, 8, util::megabytes(1));
  stranded.pin = SubstratePin::kElectricalOnly;
  const JobId stranded_id = optical_only.submit(stranded);
  EXPECT_EQ(optical_only.record(stranded_id).state, JobState::kRejected);
  EXPECT_FALSE(optical_only.record(stranded_id).reject_reason.empty());
}

/// Two electrically-pinned small jobs on hosts 0..7 whose min_wavelengths
/// (4) exceeds the electrical placement's grant of 1.
void submit_floored_electrical_pair(CollectiveRuntime& rt,
                                    util::Seconds arrival) {
  for (int i = 0; i < 2; ++i) {
    JobSpec spec = span_job(0, 8, util::kilobytes(64), arrival);
    spec.pin = SubstratePin::kElectricalOnly;
    spec.min_wavelengths = 4;
    spec.requested_wavelengths = 4;
    rt.submit(spec);
  }
}

TEST(ElectricalBatching, WavelengthFloorsDoNotBlockElectricalFusion) {
  // A fused electrical peer rides host links, not a band, so its
  // min_wavelengths must not be held against the placement's grant of one
  // host claim: both pairs below fuse into one execution of two jobs.
  RuntimeConfig config = hybrid_config(
      HybridPlacementPolicy::kElectricalOverflow);
  config.batcher.enabled = true;

  // (1) The pair queues behind a large job holding the same hosts.
  CollectiveRuntime queued(config);
  JobSpec blocker = span_job(0, 8, util::megabytes(8));
  blocker.pin = SubstratePin::kElectricalOnly;
  queued.submit(blocker);
  submit_floored_electrical_pair(queued, util::microseconds(1.0));

  // (2) The pair lands on idle hosts and waits out a fuse window.
  config.batcher.fuse_window = util::microseconds(50.0);
  CollectiveRuntime windowed(config);
  submit_floored_electrical_pair(windowed, util::Seconds(0.0));

  for (CollectiveRuntime* rt : {&queued, &windowed}) {
    const RuntimeReport report = rt->run();
    EXPECT_EQ(report.completed, rt->num_jobs());
    EXPECT_EQ(report.oracle_failures, 0u);
    EXPECT_EQ(report.batches, 1u);
    for (std::size_t i = rt->num_jobs() - 2; i < rt->num_jobs(); ++i) {
      const JobRecord& record = rt->record(static_cast<JobId>(i));
      EXPECT_EQ(record.substrate, SubstrateKind::kElectrical);
      EXPECT_EQ(record.batch_size, 2u) << "job " << i;
    }
  }
}

TEST(Substrate, MaxConcurrentCapsElectricalPlacements) {
  ElectricalFallbackConfig config;
  config.max_concurrent = 1;
  const std::unique_ptr<ExecutionSubstrate> sub =
      make_electrical_substrate(16, config);
  std::unique_ptr<SubstrateExecution> first =
      sub->place({0, 1}, util::kilobytes(1), 1);
  // Disjoint hosts, but the concurrency slot is taken.
  EXPECT_FALSE(sub->can_place({4, 5}, 1));
  sub->release(*first, util::Seconds(0.0));
  EXPECT_TRUE(sub->can_place({4, 5}, 1));
}

TEST(ParticipantCounts, EveryJobSizeCompletesOnEverySubstrate) {
  // A k-participant electrical job runs a k-chunk ring all-reduce, so for
  // k above the oracle's default row length (48) the proof row must grow
  // with the chunk count; 49..63 used to abort the process.  Every size on
  // a 64-node ring, on both substrates and both electrical fabrics.
  for (const ElectricalFabric fabric :
       {ElectricalFabric::kStarExclusive, ElectricalFabric::kTwoLevelShared}) {
    for (const SubstratePin pin :
         {SubstratePin::kElectricalOnly, SubstratePin::kOpticalOnly}) {
      for (std::uint32_t k = 2; k <= 64; ++k) {
        RuntimeConfig config =
            hybrid_config(HybridPlacementPolicy::kElectricalOverflow);
        config.ring_size = 64;
        config.optical.wdm.num_wavelengths = 64;
        config.electrical.fabric = fabric;
        config.electrical.oversubscription = 4.0;
        CollectiveRuntime rt(config);
        JobSpec spec = span_job(0, k, util::mebibytes(1));
        spec.pin = pin;
        const JobId id = rt.submit(spec);
        const RuntimeReport report = rt.run();
        SCOPED_TRACE(::testing::Message() << "k=" << k);
        EXPECT_EQ(report.completed, 1u);
        EXPECT_TRUE(rt.record(id).oracle_ok);
        EXPECT_EQ(rt.record(id).substrate,
                  pin == SubstratePin::kElectricalOnly
                      ? SubstrateKind::kElectrical
                      : SubstrateKind::kOptical);
      }
    }
  }
}

}  // namespace
}  // namespace wrht::runtime
