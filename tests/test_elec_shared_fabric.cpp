// The multi-tenant shared-fabric flow timer: one FlowNetwork timing every
// concurrent execution's in-flight step together.  Covers the contention
// mechanics (a tenant joining an oversubscribed uplink slows the tenants
// already on it, surfaced as retimings), the quiet-fabric degenerate cases
// (disjoint ToR-contained tenants neither contend nor retime each other
// materially), the epoch replay oracle (idle-to-idle epochs closed exactly
// where the test's own model of the fabric goes idle, one epoch on a fabric
// that never idles, a boundary crossed while a drained step awaits its
// completion event), rejected inputs, begin_step adopting a fresh probe's
// forward run, and the FlowNetwork seams it is built on (run_until,
// clone_live, per-link peaks).
#include "elec/shared_fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "coll/algorithms.hpp"
#include "elec/schedule_runner.hpp"
#include "util/random.hpp"

namespace wrht::elec {
namespace {

using util::Bytes;
using util::Seconds;

ElectricalParams test_params() {
  ElectricalParams p;
  p.link_bandwidth = util::gBps(1.0);
  p.link_latency = util::microseconds(25.0);
  return p;
}

/// 8 hosts, 2 ToRs of 4, uplinks `oversub`x undersized.
ElectricalCluster two_tor_cluster(double oversub) {
  return *ElectricalCluster::two_level_tree(8, 4, oversub, test_params());
}

/// A one-step schedule sending `bytes`-sized full-payload transfers
/// src -> dst for each listed pair, in an 8-host id space.
coll::Schedule pair_schedule(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  coll::Schedule schedule("pairs", 8, 1);
  schedule.add_step();
  for (const auto& [src, dst] : pairs) {
    schedule.add_transfer({src, dst, 0, coll::TransferOp::kReduce});
  }
  return schedule;
}

TEST(SharedFabric, SoloSessionMatchesQuietTimer) {
  // One tenant alone on the shared fabric is the quiet network: every step
  // must time exactly as the per-execution StepFlowTimer's quiet model.
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  const coll::Schedule schedule = coll::ring_allreduce(8);
  const Bytes payload(8'000'000);

  StepFlowTimer quiet(cluster);
  SharedFabricTimer shared(cluster);
  const SharedFabricTimer::SessionId session = shared.open_session();
  Seconds clock{0.0};
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    const std::optional<Seconds> quiet_step =
        quiet.time_step(schedule, s, payload);
    const std::optional<Seconds> end =
        shared.begin_step(session, schedule, s, payload, clock);
    ASSERT_TRUE(quiet_step && end);
    EXPECT_NEAR((*end - clock).value(), quiet_step->value(),
                1e-12 * quiet_step->value())
        << "step " << s;
    clock = *end;
  }
  shared.close_session(session, clock);
  EXPECT_EQ(shared.verify_replay(), 0u);
  EXPECT_EQ(shared.active_sessions(), 0u);
}

TEST(SharedFabric, JoiningTenantRetimesTheTenantInFlight) {
  // Tenant A sends cross-ToR alone; halfway through, tenant B starts a
  // cross-ToR flow over the SAME oversubscribed uplink.  A's step must be
  // retimed to a later end, and the final timing must replay exactly.
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  // Uplink carries 4 hosts / 4.0 oversubscription = 1 GB/s.
  SharedFabricTimer shared(cluster);
  const auto a = shared.open_session();
  const auto b = shared.open_session();

  const coll::Schedule cross_a = pair_schedule({{0, 4}});
  const coll::Schedule cross_b = pair_schedule({{1, 5}});
  const Bytes payload(1'000'000'000);  // 1 GB: ~1 s alone on the uplink

  const std::optional<Seconds> a_alone =
      shared.begin_step(a, cross_a, 0, payload, Seconds(0.0));
  ASSERT_TRUE(a_alone);
  EXPECT_NEAR(a_alone->value(), 1.0 + 100e-6, 1e-3);
  EXPECT_TRUE(shared.take_retimings().empty());

  const std::optional<Seconds> b_end =
      shared.begin_step(b, cross_b, 0, payload, Seconds(0.5));
  ASSERT_TRUE(b_end);
  const std::vector<SharedFabricTimer::Retiming> retimings =
      shared.take_retimings();
  ASSERT_EQ(retimings.size(), 1u);
  EXPECT_EQ(retimings[0].session, a);
  // A had ~0.5 GB left when B joined; the two flows then split the 1 GB/s
  // uplink, so A's remainder takes ~1 s instead of ~0.5 s.
  EXPECT_NEAR(retimings[0].end.value(), 1.5 + 100e-6, 1e-3);
  EXPECT_GT(retimings[0].end, *a_alone);
  // B carries its full 1 GB at the half rate until A drains (~1 s), then
  // the remaining ~0.5 GB at full rate: ~1.5 s of transfer.
  EXPECT_NEAR(b_end->value(), 0.5 + 1.5 + 100e-6, 1e-2);

  shared.close_session(a, retimings[0].end);
  shared.close_session(b, *b_end);
  EXPECT_EQ(shared.verify_replay(), 0u);

  // The saturated uplink peaked at full utilization; the idle ToR1->core
  // direction never carried these flows.
  const std::vector<double> peaks = shared.link_peak_utilization();
  EXPECT_NEAR(*std::max_element(peaks.begin(), peaks.end()), 1.0, 1e-9);
}

TEST(SharedFabric, DisjointTorContainedTenantsDoNotContend) {
  // Two tenants wholly inside different ToRs never share a link: each times
  // as if alone no matter the oversubscription, and the replay agrees.
  const ElectricalCluster cluster = two_tor_cluster(8.0);
  StepFlowTimer quiet(cluster);
  SharedFabricTimer shared(cluster);
  const auto a = shared.open_session();
  const auto b = shared.open_session();
  const coll::Schedule in_tor0 = pair_schedule({{0, 1}, {2, 3}});
  const coll::Schedule in_tor1 = pair_schedule({{4, 5}, {6, 7}});
  const Bytes payload(10'000'000);

  const std::optional<Seconds> a_end =
      shared.begin_step(a, in_tor0, 0, payload, Seconds(0.0));
  const std::optional<Seconds> b_end =
      shared.begin_step(b, in_tor1, 0, payload, Seconds(0.0));
  ASSERT_TRUE(a_end && b_end);
  const std::optional<Seconds> a_quiet = quiet.time_step(in_tor0, 0, payload);
  const std::optional<Seconds> b_quiet = quiet.time_step(in_tor1, 0, payload);
  ASSERT_TRUE(a_quiet && b_quiet);
  EXPECT_NEAR(a_end->value(), a_quiet->value(), 1e-12);
  EXPECT_NEAR(b_end->value(), b_quiet->value(), 1e-12);

  shared.close_session(a, *a_end);
  shared.close_session(b, *b_end);
  EXPECT_EQ(shared.verify_replay(), 0u);
}

TEST(SharedFabric, FlowLessStepCompletesInstantly) {
  const ElectricalCluster cluster = two_tor_cluster(1.0);
  SharedFabricTimer shared(cluster);
  const auto session = shared.open_session();
  coll::Schedule idle("idle", 8, 1);
  idle.add_step();  // no transfers
  const std::optional<Seconds> end =
      shared.begin_step(session, idle, 0, Bytes(1000), Seconds(2.5));
  ASSERT_TRUE(end);
  EXPECT_EQ(*end, Seconds(2.5));
  shared.close_session(session, Seconds(2.5));
  EXPECT_EQ(shared.verify_replay(), 0u);
}

TEST(SharedFabric, RejectsBadRequests) {
  const ElectricalCluster cluster = two_tor_cluster(2.0);
  SharedFabricTimer shared(cluster);
  const auto session = shared.open_session();
  const coll::Schedule schedule = coll::ring_allreduce(8);
  const Bytes payload(1'000'000);

  // Unknown session.
  EXPECT_FALSE(shared.begin_step(99, schedule, 0, payload, Seconds(0.0)));
  // Out-of-range step.
  EXPECT_FALSE(shared.begin_step(session, schedule, schedule.num_steps(),
                                 payload, Seconds(0.0)));
  // Schedule wider than the cluster.
  EXPECT_FALSE(shared.begin_step(session, coll::ring_allreduce(16), 0,
                                 payload, Seconds(0.0)));

  const std::optional<Seconds> end =
      shared.begin_step(session, schedule, 0, payload, Seconds(1.0));
  ASSERT_TRUE(end);
  // Clock running backwards.
  EXPECT_FALSE(shared.begin_step(session, schedule, 1, payload,
                                 Seconds(0.5)));
  // Next step before the previous one finished.
  EXPECT_FALSE(shared.begin_step(session, schedule, 1, payload,
                                 Seconds(1.0 + 1e-6)));
  // At the completed boundary, the next step is accepted.
  EXPECT_TRUE(shared.begin_step(session, schedule, 1, payload, *end));
  // A closed session refuses further steps.
  const auto other = shared.open_session();
  shared.close_session(other, *end);
  EXPECT_FALSE(shared.begin_step(other, schedule, 0, payload, *end));
}

std::uint64_t bits(Seconds t) {
  return std::bit_cast<std::uint64_t>(t.value());
}

/// A random multi-step tenant schedule over the 16 hosts of a 4:1 tree:
/// 1-4 steps of 1-4 host-to-host transfers each, mostly crossing ToRs.
coll::Schedule random_schedule(util::Rng& rng) {
  coll::Schedule schedule("tenant", 16, 1);
  const std::uint64_t steps = 1 + rng.next_below(4);
  for (std::uint64_t s = 0; s < steps; ++s) {
    schedule.add_step();
    const std::uint64_t transfers = 1 + rng.next_below(4);
    for (std::uint64_t t = 0; t < transfers; ++t) {
      const auto src = static_cast<std::uint32_t>(rng.next_below(16));
      const auto dst =
          static_cast<std::uint32_t>((src + 1 + rng.next_below(15)) % 16);
      schedule.add_transfer({src, dst, 0, coll::TransferOp::kReduce});
    }
  }
  return schedule;
}

TEST(SharedFabric, AdoptedProbeMatchesFreshForwardRunBitwise) {
  // Two timers serve the same seeded tenant sequence on a 4:1 tree.
  // `probing` asks predict_step_completion before every begin_step: mostly
  // a fresh probe of exactly that step, sometimes a stale one (another
  // step, instant, or payload, or a close_session in between).  `plain`
  // never probes, so every begin_step makes its own forward run.  The
  // adopted probe must change nothing — begin_step returns, retimings,
  // in-flight ends and the replay all agree bit for bit — and forward_runs
  // shows the reuse fired exactly when the probe was fresh.
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(16, 4, 4.0, test_params());
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    util::Rng rng(seed);
    SharedFabricTimer probing(cluster);
    SharedFabricTimer plain(cluster);
    struct Tenant {
      coll::Schedule schedule;
      Bytes payload;
      SharedFabricTimer::SessionId session = 0;
      std::size_t next_step = 0;
      Seconds ready{0.0};
      bool done = false;
    };
    std::vector<Tenant> tenants;
    for (int i = 0; i < 24; ++i) {
      Tenant tenant{random_schedule(rng),
                    Bytes(100'000 + rng.next_below(20'000'000))};
      tenant.session = probing.open_session();
      ASSERT_EQ(plain.open_session(), tenant.session);
      tenant.ready = Seconds(0.04 * rng.next_double());
      tenants.push_back(std::move(tenant));
    }

    std::uint64_t fresh = 0;
    std::uint64_t stale = 0;
    while (true) {
      Tenant* due = nullptr;
      for (Tenant& tenant : tenants) {
        if (!tenant.done && (due == nullptr || tenant.ready < due->ready)) {
          due = &tenant;
        }
      }
      if (due == nullptr) break;
      const Seconds now = due->ready;
      if (due->next_step == due->schedule.num_steps()) {
        probing.close_session(due->session, now);
        plain.close_session(due->session, now);
        due->done = true;
        continue;
      }

      const std::size_t step = due->next_step;
      // The probe: this very step, or (kind 6-8) another step, instant or
      // payload; kind 9 probes this step but closes a session before
      // begin_step.
      const std::uint64_t kind = rng.next_below(10);
      std::size_t probe_step = step;
      Seconds probe_at = now;
      Bytes probe_payload = due->payload;
      if (kind == 6) probe_step = (step + 1) % due->schedule.num_steps();
      if (kind == 7) probe_at = now + Seconds(1e-6);
      if (kind == 8) probe_payload = due->payload + Bytes(1);
      const std::optional<Seconds> probe = probing.predict_step_completion(
          due->schedule, probe_step, probe_payload, probe_at);
      ASSERT_TRUE(probe.has_value());
      if (kind == 9) {  // an idle session, closed only to move the fabric
        const SharedFabricTimer::SessionId idle = probing.open_session();
        ASSERT_EQ(plain.open_session(), idle);
        probing.close_session(idle, now);
        plain.close_session(idle, now);
      }
      // Fresh = same instant, no close in between, and the identical
      // ordered flow list (another step may happen to carry the same one).
      std::vector<StepFlow> probed;
      std::vector<StepFlow> placed;
      step_flows(due->schedule, probe_step, probe_payload, probed);
      step_flows(due->schedule, step, due->payload, placed);
      const bool is_fresh = kind != 9 && probe_at == now && probed == placed;
      ++(is_fresh ? fresh : stale);

      const std::uint64_t probing_runs = probing.forward_runs();
      const std::uint64_t plain_runs = plain.forward_runs();
      const std::optional<Seconds> end =
          probing.begin_step(due->session, due->schedule, step, due->payload,
                             now);
      const std::optional<Seconds> reference =
          plain.begin_step(due->session, due->schedule, step, due->payload,
                           now);
      ASSERT_TRUE(end && reference) << "seed " << seed << " t=" << now.value();
      EXPECT_EQ(bits(*end), bits(*reference));
      EXPECT_EQ(plain.forward_runs() - plain_runs, 1u);
      EXPECT_EQ(probing.forward_runs() - probing_runs, is_fresh ? 0u : 1u)
          << "probe kind " << kind;
      // The probe's answer IS the placed step's completion when fresh.
      if (is_fresh) {
        EXPECT_EQ(bits(*probe), bits(*end));
      }

      const auto retimed = probing.take_retimings();
      const auto retimed_plain = plain.take_retimings();
      ASSERT_EQ(retimed.size(), retimed_plain.size());
      for (std::size_t r = 0; r < retimed.size(); ++r) {
        EXPECT_EQ(retimed[r].session, retimed_plain[r].session);
        EXPECT_EQ(bits(retimed[r].end), bits(retimed_plain[r].end));
        for (Tenant& tenant : tenants) {
          if (tenant.session == retimed[r].session) {
            tenant.ready = retimed[r].end;
          }
        }
      }
      const std::vector<Seconds> ends = probing.inflight_predicted_ends();
      const std::vector<Seconds> ends_plain = plain.inflight_predicted_ends();
      ASSERT_EQ(ends.size(), ends_plain.size());
      for (std::size_t e = 0; e < ends.size(); ++e) {
        EXPECT_EQ(bits(ends[e]), bits(ends_plain[e]));
      }
      due->ready = *end;
      ++due->next_step;
    }
    EXPECT_GT(fresh, 0u);
    EXPECT_GT(stale, 0u);
    EXPECT_EQ(probing.active_sessions(), 0u);
    EXPECT_EQ(probing.logged_steps(), plain.logged_steps());
    EXPECT_EQ(probing.verify_replay(), 0u);
    EXPECT_EQ(plain.verify_replay(), 0u);
    // Every probe ran forward once; every begin_step ran once unless it
    // adopted a fresh probe.
    EXPECT_EQ(probing.forward_runs(), plain.forward_runs() + stale);
  }
}

/// A seeded multi-tenant sequence on a 4:1 tree of 16 hosts, driven the way
/// the runtime drives the timer: each tenant acts at its next ready instant
/// (arrival, or its step's predicted end — moved by retimings — plus a
/// lag), beginning its next step or closing its session.  The driver keeps
/// its own model of when the fabric goes idle: after an advance to `now`,
/// no in-flight step ends later than `now`.
struct EpochRun {
  std::uint64_t steps = 0;
  /// Idle boundaries with at least one step logged since the previous one.
  std::uint64_t boundaries = 0;
  std::uint64_t longest_epoch = 0;
  /// Boundaries crossed while another tenant's step sat drained but not
  /// yet finalized (its completion not yet acted on).
  std::uint64_t unfinalized_boundaries = 0;
};

struct EpochLoad {
  int tenants = 24;
  /// Arrivals are spread uniformly over [0, arrival_span).
  double arrival_span = 0.0;
  /// Probability that a tenant acts `lag` after its step's end, not at it.
  double lag_probability = 0.0;
  double max_lag = 0.0;
  /// Tenant 0 runs one step long enough to outlast every other tenant.
  bool background = false;
};

EpochRun run_epoch_load(std::uint64_t seed, const EpochLoad& load,
                        SharedFabricTimer& shared) {
  struct Tenant {
    coll::Schedule schedule;
    Bytes payload;
    SharedFabricTimer::SessionId session = 0;
    std::size_t next_step = 0;
    Seconds ready{0.0};
    Seconds lag{0.0};
    bool in_flight = false;  // a begun step not yet acted on
    Seconds step_end{0.0};
    bool done = false;
  };
  util::Rng rng(seed);
  std::vector<Tenant> tenants;
  for (int i = 0; i < load.tenants; ++i) {
    Tenant tenant{random_schedule(rng),
                  Bytes(100'000 + rng.next_below(20'000'000))};
    tenant.session = shared.open_session();
    tenant.ready = Seconds(load.arrival_span * rng.next_double());
    tenants.push_back(std::move(tenant));
  }
  if (load.background) {
    // Hosts 0 and 1 share a ToR, so the flow never crosses an uplink; its
    // 10^11 bytes take at least 100 s on a 1 GB/s access link.
    tenants[0].schedule = coll::Schedule("background", 16, 1);
    tenants[0].schedule.add_step();
    tenants[0].schedule.add_transfer({0, 1, 0, coll::TransferOp::kReduce});
    tenants[0].payload = Bytes(100'000'000'000);
    tenants[0].ready = Seconds(0.0);
  }

  EpochRun run;
  std::uint64_t open_epoch = 0;
  while (true) {
    Tenant* due = nullptr;
    for (Tenant& tenant : tenants) {
      if (!tenant.done && (due == nullptr || tenant.ready < due->ready)) {
        due = &tenant;
      }
    }
    if (due == nullptr) break;
    const Seconds now = due->ready;

    // Either call below first advances the fabric to `now`.
    bool idle = true;
    bool other_drained = false;
    for (const Tenant& tenant : tenants) {
      if (!tenant.in_flight) continue;
      idle = idle && tenant.step_end <= now;
      other_drained = other_drained || &tenant != due;
    }
    if (idle && open_epoch > 0) {
      ++run.boundaries;
      run.longest_epoch = std::max(run.longest_epoch, open_epoch);
      open_epoch = 0;
      if (other_drained) ++run.unfinalized_boundaries;
    }

    due->in_flight = false;
    if (due->next_step == due->schedule.num_steps()) {
      shared.close_session(due->session, now);
      due->done = true;
      continue;
    }
    const std::optional<Seconds> end = shared.begin_step(
        due->session, due->schedule, due->next_step, due->payload, now);
    EXPECT_TRUE(end.has_value()) << "seed " << seed << " t=" << now.value();
    if (!end) return run;
    ++run.steps;
    ++open_epoch;
    ++due->next_step;
    due->in_flight = true;
    due->step_end = *end;
    due->lag = rng.next_double() < load.lag_probability
                   ? Seconds(load.max_lag * rng.next_double())
                   : Seconds(0.0);
    due->ready = *end + due->lag;
    for (const SharedFabricTimer::Retiming& retiming :
         shared.take_retimings()) {
      for (Tenant& tenant : tenants) {
        if (tenant.session == retiming.session) {
          tenant.step_end = retiming.end;
          tenant.ready = retiming.end + tenant.lag;
        }
      }
    }
  }
  // The last close leaves the fabric idle, so no step stays in an open
  // epoch.
  EXPECT_EQ(open_epoch, 0u);
  return run;
}

/// The epoch audit's contract on one finished sequence: every step logged
/// and re-proven, one closed epoch per idle boundary the driver saw, and
/// the log never longer than the longest of them.
void expect_epoch_audit(const SharedFabricTimer& shared, const EpochRun& run) {
  EXPECT_EQ(shared.active_sessions(), 0u);
  EXPECT_EQ(shared.verify_replay(), 0u);
  EXPECT_EQ(shared.logged_steps(), run.steps);
  EXPECT_EQ(shared.checked_steps(), shared.logged_steps());
  EXPECT_EQ(shared.epochs_closed(), run.boundaries);
  EXPECT_EQ(shared.peak_held_steps(), run.longest_epoch);
}

ElectricalCluster sixteen_host_tree() {
  return *ElectricalCluster::two_level_tree(16, 4, 4.0, test_params());
}

TEST(SharedFabricEpochs, FrequentIdleGapsCloseOneEpochPerGap) {
  // Arrivals spread thinly enough that the fabric drains between bursts:
  // many short epochs, and the log never holds more than one of them.
  const ElectricalCluster cluster = sixteen_host_tree();
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    SharedFabricTimer shared(cluster);
    const EpochRun run = run_epoch_load(
        seed, EpochLoad{.tenants = 40, .arrival_span = 3.0}, shared);
    expect_epoch_audit(shared, run);
    EXPECT_GE(run.boundaries, 10u) << "seed " << seed;
    EXPECT_LT(shared.peak_held_steps() * 2, shared.logged_steps())
        << "seed " << seed;
  }
}

TEST(SharedFabricEpochs, FabricThatNeverIdlesIsOneEpoch) {
  // A background flow outlasts every other tenant, so no advance finds the
  // fabric idle until its own close: the whole run is one epoch, held at
  // once, exactly as a whole-horizon log would hold it.
  const ElectricalCluster cluster = sixteen_host_tree();
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    SharedFabricTimer shared(cluster);
    const EpochRun run = run_epoch_load(
        seed,
        EpochLoad{.tenants = 24, .arrival_span = 0.2, .background = true},
        shared);
    expect_epoch_audit(shared, run);
    EXPECT_EQ(run.boundaries, 1u) << "seed " << seed;
    EXPECT_EQ(shared.peak_held_steps(), shared.logged_steps());
  }
}

TEST(SharedFabricEpochs, BoundaryWithAnotherSessionsStepDrainedButOpen) {
  // Tenants often act well after their step drained (their completion
  // event is late), so other tenants' advances close epochs while those
  // steps are drained but not finalized.  Each is checked exactly once:
  // at the boundary, from the live network's recorded completions.
  const ElectricalCluster cluster = sixteen_host_tree();
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    SharedFabricTimer shared(cluster);
    const EpochRun run = run_epoch_load(
        seed,
        EpochLoad{.tenants = 40,
                  .arrival_span = 4.0,
                  .lag_probability = 0.5,
                  .max_lag = 0.1},
        shared);
    expect_epoch_audit(shared, run);
    EXPECT_GT(run.unfinalized_boundaries, 0u) << "seed " << seed;
  }
}

TEST(SharedFabricEpochs, DrainedStepLeftOpenAcrossABoundaryIsAMismatch) {
  // A's step drains at ~1 ms; B begins at 5 ms on the idle fabric, which
  // closes the epoch holding A's drained but unfinalized step.  Until A's
  // session folds it, the step counts as a mismatch, as an unfinalized step
  // always has; once folded, the verdict is clean.
  const ElectricalCluster cluster = sixteen_host_tree();
  SharedFabricTimer shared(cluster);
  const auto a = shared.open_session();
  const auto b = shared.open_session();
  const coll::Schedule cross = pair_schedule({{0, 4}});
  const Bytes payload(1'000'000);
  const std::optional<Seconds> a_end =
      shared.begin_step(a, cross, 0, payload, Seconds(0.0));
  ASSERT_TRUE(a_end);
  ASSERT_LT(*a_end, Seconds(0.005));
  const std::optional<Seconds> b_end =
      shared.begin_step(b, cross, 0, payload, Seconds(0.005));
  ASSERT_TRUE(b_end);
  EXPECT_EQ(shared.epochs_closed(), 1u);
  EXPECT_EQ(shared.logged_steps(), 2u);
  EXPECT_EQ(shared.checked_steps(), 2u);
  // A's step (closed epoch) and B's in-flight step (open tail).
  EXPECT_EQ(shared.verify_replay(), 2u);
  shared.close_session(a, Seconds(0.005));
  EXPECT_EQ(shared.verify_replay(), 1u);  // B's step is still in flight
  shared.close_session(b, *b_end);
  EXPECT_EQ(shared.verify_replay(), 0u);
  EXPECT_EQ(shared.epochs_closed(), 2u);
  EXPECT_EQ(shared.peak_held_steps(), 1u);
}

TEST(SharedFabricEpochs, AuditOffLogsNothing) {
  const ElectricalCluster cluster = sixteen_host_tree();
  SharedFabricTimer audited(cluster);
  SharedFabricTimer unaudited(cluster, /*replay_audit=*/false);
  const EpochLoad load{.tenants = 16, .arrival_span = 0.3};
  const EpochRun run = run_epoch_load(5, load, audited);
  const EpochRun same = run_epoch_load(5, load, unaudited);
  EXPECT_EQ(same.steps, run.steps);
  EXPECT_EQ(same.boundaries, run.boundaries);
  EXPECT_EQ(unaudited.logged_steps(), 0u);
  EXPECT_EQ(unaudited.checked_steps(), 0u);
  EXPECT_EQ(unaudited.epochs_closed(), 0u);
  EXPECT_EQ(unaudited.peak_held_steps(), 0u);
  EXPECT_EQ(unaudited.verify_replay(), 0u);
}

TEST(FlowNetwork, RunUntilSplitsMatchOneShotRun) {
  // Driving the same flow set through run_until checkpoints must complete
  // every flow at (numerically) the same instant as one uninterrupted run.
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  FlowNetwork split = cluster.make_network();
  FlowNetwork whole = cluster.make_network();
  std::vector<FlowId> split_ids;
  std::vector<FlowId> whole_ids;
  for (std::uint32_t h = 0; h < 4; ++h) {
    split_ids.push_back(
        split.add_flow(cluster.route(h, 4 + h), Bytes(250'000'000)));
    whole_ids.push_back(
        whole.add_flow(cluster.route(h, 4 + h), Bytes(250'000'000)));
  }
  for (double t = 0.1; t < 2.0; t += 0.1) split.run_until(Seconds(t));
  split.run();
  whole.run();
  for (std::size_t i = 0; i < split_ids.size(); ++i) {
    ASSERT_TRUE(split.completed(split_ids[i]));
    EXPECT_NEAR(split.completion_time(split_ids[i]).value(),
                whole.completion_time(whole_ids[i]).value(), 1e-9);
  }
  // The idle clock still lands on a horizon past the last completion.
  split.run_until(Seconds(5.0));
  EXPECT_EQ(split.now(), Seconds(5.0));
}

TEST(FlowNetwork, CloneLiveCarriesOnlyInFlightFlows) {
  const ElectricalCluster cluster = two_tor_cluster(1.0);
  FlowNetwork network = cluster.make_network();
  const FlowId fast =
      network.add_flow(cluster.route(0, 1), Bytes(1'000'000));
  const FlowId slow =
      network.add_flow(cluster.route(0, 4), Bytes(1'000'000'000));
  network.run_until(Seconds(0.5));  // fast done, slow mid-flight

  std::vector<FlowId> id_map;
  FlowNetwork copy = network.clone_live(id_map);
  ASSERT_EQ(id_map.size(), 2u);
  EXPECT_EQ(id_map[fast], kNoFlow);
  ASSERT_NE(id_map[slow], kNoFlow);
  copy.run();
  // The copy's forward run predicts the original's completion.
  network.run();
  EXPECT_NEAR(copy.completion_time(id_map[slow]).value(),
              network.completion_time(slow).value(), 1e-9);
}

}  // namespace
}  // namespace wrht::elec
