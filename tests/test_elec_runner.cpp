#include "elec/schedule_runner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "coll/algorithms.hpp"
#include "elec/alphabeta.hpp"

namespace wrht::elec {
namespace {

using util::Bytes;

ElectricalParams test_params() {
  ElectricalParams p;
  p.link_bandwidth = util::gBps(1.0);
  p.link_latency = util::microseconds(25.0);
  return p;
}

TEST(Runner, RingAllReduceOnStarMatchesClosedForm) {
  const std::uint32_t n = 8;
  const Bytes payload(8'000'000);  // divisible by 8: uniform chunks
  const ElectricalCluster cluster = ElectricalCluster::star(n, test_params());
  const coll::Schedule schedule = coll::ring_allreduce(n);
  const ElecRunResult result = run_on_electrical(schedule, cluster, payload);

  ASSERT_EQ(result.step_durations.size(), 2u * (n - 1));
  // Each step: 1 MB chunk at 1 GB/s + 2x25us route latency = 1.05 ms.
  const double expected_step = 1e-3 + 50e-6;
  for (const util::Seconds& step : result.step_durations) {
    EXPECT_NEAR(step.value(), expected_step, 1e-9);
  }
  EXPECT_NEAR(result.total.value(), 14 * expected_step, 1e-8);
}

TEST(Runner, RecursiveDoublingOnStarMatchesClosedForm) {
  const std::uint32_t n = 8;
  const Bytes payload(1'000'000);
  const ElectricalCluster cluster = ElectricalCluster::star(n, test_params());
  const coll::Schedule schedule = coll::recursive_doubling(n);
  const ElecRunResult result = run_on_electrical(schedule, cluster, payload);

  ASSERT_EQ(result.step_durations.size(), 3u);
  // Pairwise exchange, full duplex: full vector at line rate + latency.
  const double expected_step = 1e-3 + 50e-6;
  EXPECT_NEAR(result.total.value(), 3 * expected_step, 1e-8);
}

TEST(Runner, MatchesAlphaBetaOnContentionFreePatterns) {
  const std::uint32_t n = 16;
  const Bytes payload(16'000'000);
  const ElectricalCluster cluster = ElectricalCluster::star(n, test_params());
  const coll::AlphaBetaParams ab = alpha_beta_for(cluster);
  EXPECT_NEAR(ab.alpha.value(), 50e-6, 1e-9);
  EXPECT_NEAR(ab.bandwidth.bytes_per_second(), 1e9, 1e3);

  for (const coll::Schedule& schedule :
       {coll::ring_allreduce(n), coll::recursive_doubling(n)}) {
    const ElecRunResult sim = run_on_electrical(schedule, cluster, payload);
    const coll::CostBreakdown analytic =
        coll::alpha_beta_cost(schedule, payload, ab);
    EXPECT_NEAR(sim.total.value(), analytic.total.value(),
                analytic.total.value() * 1e-6)
        << schedule.name();
  }
}

TEST(Runner, DirectAllReduceCongestsReceivers) {
  // All-to-all of full vectors on a star: each host receives (n-1) x D on
  // its downlink, so the step takes (n-1) x D / B (plus latency), not D / B.
  const std::uint32_t n = 4;
  const Bytes payload(100'000'000);
  const ElectricalCluster cluster = ElectricalCluster::star(n, test_params());
  const ElecRunResult result =
      run_on_electrical(coll::direct_allreduce(n), cluster, payload);
  EXPECT_NEAR(result.total.value(), 0.3 + 50e-6, 1e-3);
}

TEST(Runner, NaiveRingIsSlowerThanChunkedRing) {
  const std::uint32_t n = 8;
  const Bytes payload(8'000'000);
  const ElectricalCluster cluster = ElectricalCluster::star(n, test_params());
  const double chunked =
      run_on_electrical(coll::ring_allreduce(n), cluster, payload)
          .total.value();
  const double naive =
      run_on_electrical(coll::naive_ring(n), cluster, payload).total.value();
  EXPECT_GT(naive, chunked * 3.0);
}

TEST(Runner, StepCountPreserved) {
  const std::uint32_t n = 6;
  const ElectricalCluster cluster = ElectricalCluster::star(n, test_params());
  const coll::Schedule schedule = coll::binomial_tree(n);
  const ElecRunResult result =
      run_on_electrical(schedule, cluster, Bytes(1000));
  EXPECT_EQ(result.step_durations.size(), schedule.num_steps());
}

TEST(Runner, EmptyScheduleRunsInZeroTime) {
  const ElectricalCluster cluster = ElectricalCluster::star(4, test_params());
  const coll::Schedule empty("empty", 4, 1);  // zero steps
  const ElecRunResult result =
      run_on_electrical(empty, cluster, util::megabytes(1));
  EXPECT_EQ(result.step_durations.size(), 0u);
  EXPECT_EQ(result.total, util::Seconds(0.0));
}

TEST(Runner, StepsWithoutFlowsTakeZeroTime) {
  // A schedule can carry steps with no transfers (a single-node "group"
  // has nothing to exchange); the quiet network must report a zero-length
  // step instead of hanging or charging latency for flows that never exist.
  const ElectricalCluster cluster = ElectricalCluster::star(2, test_params());
  coll::Schedule schedule("idle-steps", 2, 1);
  schedule.add_step();  // empty
  schedule.add_step();
  schedule.add_transfer({0, 1, 0, coll::TransferOp::kReduce});
  schedule.add_step();  // empty again
  const ElecRunResult result =
      run_on_electrical(schedule, cluster, util::megabytes(1));
  ASSERT_EQ(result.step_durations.size(), 3u);
  EXPECT_EQ(result.step_durations[0], util::Seconds(0.0));
  EXPECT_GT(result.step_durations[1], util::Seconds(0.0));
  EXPECT_EQ(result.step_durations[2], util::Seconds(0.0));
  EXPECT_EQ(result.total, result.step_durations[1]);
}

TEST(Runner, SingleTransferStepMatchesHandComputation) {
  // One flow, quiet network: chunk at line rate plus the two-hop route
  // latency, nothing else.
  const ElectricalCluster cluster = ElectricalCluster::star(2, test_params());
  coll::Schedule schedule("pair", 2, 1);
  schedule.add_step();
  schedule.add_transfer({0, 1, 0, coll::TransferOp::kReduce});
  const ElecRunResult result =
      run_on_electrical(schedule, cluster, Bytes(1'000'000));
  ASSERT_EQ(result.step_durations.size(), 1u);
  EXPECT_NEAR(result.total.value(), 1e-3 + 50e-6, 1e-9);
}

TEST(Runner, ZeroBytePayloadCompletesAtRouteLatency) {
  // A zero-byte chunk still pays the activation latency of its route —
  // flows are never skipped, and the fluid solver must not divide by a
  // zero remaining volume.
  const std::uint32_t n = 4;
  const ElectricalCluster cluster = ElectricalCluster::star(n, test_params());
  const coll::Schedule schedule = coll::ring_allreduce(n);
  const ElecRunResult result = run_on_electrical(schedule, cluster, Bytes(0));
  ASSERT_EQ(result.step_durations.size(), 2u * (n - 1));
  for (const util::Seconds& step : result.step_durations) {
    EXPECT_NEAR(step.value(), 50e-6, 1e-12);  // 2 x 25 us route latency
  }
}

TEST(Runner, IncrementalStepTimingAgreesWithWholeSchedule) {
  // The multi-tenant runtime times electrical steps one at a time through
  // StepFlowTimer; on identical inputs every per-step duration — and their
  // sum — must equal the whole-schedule runner's, including on patterns
  // with real link contention (direct all-reduce congests the downlinks).
  const std::uint32_t n = 8;
  const Bytes payload(7'777'777);  // deliberately not divisible by n
  const ElectricalCluster cluster = ElectricalCluster::star(n, test_params());
  for (const coll::Schedule& schedule :
       {coll::ring_allreduce(n), coll::recursive_doubling(n),
        coll::direct_allreduce(n), coll::binomial_tree(n)}) {
    const ElecRunResult whole = run_on_electrical(schedule, cluster, payload);
    StepFlowTimer timer(cluster);
    util::Seconds total{0.0};
    for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
      const std::optional<util::Seconds> step =
          timer.time_step(schedule, s, payload);
      ASSERT_TRUE(step.has_value()) << schedule.name() << " step " << s;
      EXPECT_EQ(*step, whole.step_durations[s]) << schedule.name() << " step "
                                                << s;
      total += *step;
    }
    EXPECT_EQ(total, whole.total) << schedule.name();
  }
}

TEST(Runner, StepFlowTimerIsReusableOutOfOrder) {
  // Each step runs on a reset network (the memo of the last flow list only
  // skips re-running an identical one), so steps may be timed in any order
  // and even repeatedly.
  const std::uint32_t n = 4;
  const ElectricalCluster cluster = ElectricalCluster::star(n, test_params());
  const coll::Schedule schedule = coll::ring_allreduce(n);
  const Bytes payload(4'000'000);
  StepFlowTimer timer(cluster);
  const std::optional<util::Seconds> last =
      timer.time_step(schedule, schedule.num_steps() - 1, payload);
  const std::optional<util::Seconds> first = timer.time_step(schedule, 0, payload);
  const std::optional<util::Seconds> first_again =
      timer.time_step(schedule, 0, payload);
  ASSERT_TRUE(last && first && first_again);
  EXPECT_EQ(*first, *first_again);
  EXPECT_GT(*first, util::Seconds(0.0));
  EXPECT_GT(*last, util::Seconds(0.0));
}

std::uint64_t bits(util::Seconds t) {
  return std::bit_cast<std::uint64_t>(t.value());
}

/// One step of full-payload transfers between the listed host pairs of a
/// 16-host id space, in list order.
coll::Schedule one_step(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  coll::Schedule schedule("pairs", 16, 1);
  schedule.add_step();
  for (const auto& [src, dst] : pairs) {
    schedule.add_transfer({src, dst, 0, coll::TransferOp::kReduce});
  }
  return schedule;
}

TEST(Runner, QuietMemoAnswersOnlyTheIdenticalFlowList) {
  // StepFlowTimer remembers the last flow list it ran and its makespan.
  // Repeats interleave with near misses — one byte more, the same flows in
  // another order — and with another schedule whose step is the identical
  // list, on an oversubscribed tree where the flows contend.  Every answer
  // must equal a fresh timer's bit for bit, and only an identical list may
  // skip the forward run.
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(16, 4, 4.0, test_params());
  const coll::Schedule base = one_step({{0, 4}, {1, 8}, {2, 5}, {12, 3}});
  const coll::Schedule reordered = one_step({{1, 8}, {0, 4}, {2, 5}, {12, 3}});
  const coll::Schedule twin = one_step({{0, 4}, {1, 8}, {2, 5}, {12, 3}});
  const coll::Schedule ring = coll::ring_allreduce(16);
  const Bytes payload(3'000'001);
  const Bytes wider = payload + Bytes(1);
  struct Ask {
    const coll::Schedule* schedule;
    std::size_t step;
    Bytes payload;
    bool remembered;
  };
  const std::vector<Ask> asks = {
      {&base, 0, payload, false},     {&base, 0, payload, true},
      {&base, 0, wider, false},       {&base, 0, wider, true},
      {&reordered, 0, wider, false},  {&base, 0, wider, false},
      {&twin, 0, wider, true},        {&ring, 3, payload, false},
      {&ring, 3, payload, true},      {&ring, 4, payload, false},
      {&base, 0, payload, false},
  };
  StepFlowTimer timer(cluster);
  for (std::size_t i = 0; i < asks.size(); ++i) {
    const Ask& ask = asks[i];
    const std::uint64_t runs = timer.forward_runs();
    const std::optional<util::Seconds> memo =
        timer.time_step(*ask.schedule, ask.step, ask.payload);
    const std::optional<util::Seconds> fresh =
        StepFlowTimer(cluster).time_step(*ask.schedule, ask.step, ask.payload);
    ASSERT_TRUE(memo && fresh) << "ask " << i;
    EXPECT_EQ(bits(*memo), bits(*fresh)) << "ask " << i;
    EXPECT_EQ(timer.forward_runs() - runs, ask.remembered ? 0u : 1u)
        << "ask " << i;
  }
  // A refused request neither runs nor disturbs the remembered list.
  const std::uint64_t runs = timer.forward_runs();
  EXPECT_FALSE(timer.time_step(base, 1, payload));
  EXPECT_TRUE(timer.time_step(base, 0, payload).has_value());
  EXPECT_EQ(timer.forward_runs(), runs);
}

TEST(Runner, WholeScheduleRunMatchesFreshPerStepTimers) {
  // run_on_electrical times every step on one memoizing timer; each
  // duration must equal a fresh timer's, including a schedule whose
  // consecutive steps repeat the identical flow list (a memo hit inside
  // the run) and the contended steps of the oversubscribed tree.
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(16, 4, 4.0, test_params());
  coll::Schedule repeated("repeated", 16, 1);
  for (int s = 0; s < 3; ++s) {
    repeated.add_step();
    repeated.add_transfer({0, 4, 0, coll::TransferOp::kReduce});
    repeated.add_transfer({1, 12, 0, coll::TransferOp::kReduce});
  }
  const Bytes payload(7'777'777);
  for (const coll::Schedule& schedule :
       {coll::ring_allreduce(16), coll::recursive_doubling(16), repeated}) {
    const ElecRunResult whole = run_on_electrical(schedule, cluster, payload);
    ASSERT_EQ(whole.step_durations.size(), schedule.num_steps());
    for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
      const std::optional<util::Seconds> fresh =
          StepFlowTimer(cluster).time_step(schedule, s, payload);
      ASSERT_TRUE(fresh.has_value());
      EXPECT_EQ(bits(whole.step_durations[s]), bits(*fresh))
          << schedule.name() << " step " << s;
    }
  }
}

TEST(Runner, StepFlowTimerRejectsOutOfRangeStep) {
  // An out-of-range step is a recoverable nullopt, not a crash — and the
  // refusal leaves the timer fully usable.
  const ElectricalCluster cluster = ElectricalCluster::star(4, test_params());
  const coll::Schedule schedule = coll::ring_allreduce(4);
  StepFlowTimer timer(cluster);
  EXPECT_FALSE(
      timer.time_step(schedule, schedule.num_steps(), util::megabytes(1)));
  EXPECT_FALSE(timer.time_step(schedule, schedule.num_steps() + 17,
                               util::megabytes(1)));
  EXPECT_TRUE(timer.time_step(schedule, 0, util::megabytes(1)).has_value());
}

TEST(Runner, StepFlowTimerRejectsOversizedSchedule) {
  // A schedule naming more hosts than the cluster has cannot be routed.
  const ElectricalCluster cluster = ElectricalCluster::star(4, test_params());
  const coll::Schedule schedule = coll::ring_allreduce(8);
  StepFlowTimer timer(cluster);
  EXPECT_FALSE(timer.time_step(schedule, 0, util::megabytes(1)));
  // A fitting schedule still times fine on the same timer afterwards.
  EXPECT_TRUE(
      timer.time_step(coll::ring_allreduce(4), 0, util::megabytes(1))
          .has_value());
}

}  // namespace
}  // namespace wrht::elec
