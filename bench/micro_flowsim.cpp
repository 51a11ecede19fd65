// google-benchmark micro-benchmarks of the flow-level electrical simulator:
// events per second for the patterns the Figure-2 harness runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "coll/algorithms.hpp"
#include "elec/schedule_runner.hpp"
#include "elec/shared_fabric.hpp"

namespace {

void BM_FlowRingStep(benchmark::State& state) {
  // One ring step: n simultaneous neighbour flows over the star.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const wrht::elec::ElectricalCluster cluster =
      wrht::elec::ElectricalCluster::star(n, wrht::elec::ElectricalParams{});
  for (auto _ : state) {
    wrht::elec::FlowNetwork network = cluster.make_network();
    for (std::uint32_t i = 0; i < n; ++i) {
      network.add_flow(cluster.route(i, (i + 1) % n),
                       wrht::util::Bytes(1'000'000));
    }
    benchmark::DoNotOptimize(network.run().value());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlowRingStep)->Arg(64)->Arg(256)->Arg(1024);

void BM_FlowIncast(benchmark::State& state) {
  // Worst-case fairness recomputation: k flows into one host.
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const wrht::elec::ElectricalCluster cluster =
      wrht::elec::ElectricalCluster::star(k + 1,
                                          wrht::elec::ElectricalParams{});
  for (auto _ : state) {
    wrht::elec::FlowNetwork network = cluster.make_network();
    for (std::uint32_t i = 1; i <= k; ++i) {
      network.add_flow(cluster.route(i, 0), wrht::util::Bytes(1'000'000));
    }
    benchmark::DoNotOptimize(network.run().value());
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_FlowIncast)->Arg(16)->Arg(128)->Arg(512);

void BM_FullRingAllReduceElectrical(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const wrht::elec::ElectricalCluster cluster =
      wrht::elec::ElectricalCluster::star(n, wrht::elec::ElectricalParams{});
  const wrht::coll::Schedule schedule = wrht::coll::ring_allreduce(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wrht::elec::run_on_electrical(schedule, cluster,
                                      wrht::util::megabytes(100))
            .total.value());
  }
  state.SetItemsProcessed(state.iterations() * schedule.total_transfers());
}
BENCHMARK(BM_FullRingAllReduceElectrical)->Arg(32)->Arg(128);

/// `schedule` with node i relabelled as host hosts[i].
wrht::coll::Schedule on_hosts(const wrht::coll::Schedule& schedule,
                              const std::vector<std::uint32_t>& hosts,
                              std::uint32_t num_hosts) {
  wrht::coll::Schedule out(schedule.name(), num_hosts, schedule.num_chunks());
  for (const wrht::coll::Step& step : schedule.steps()) {
    out.add_step();
    for (wrht::coll::Transfer t : step.transfers) {
      t.src = hosts[t.src];
      t.dst = hosts[t.dst];
      out.add_transfer(t);
    }
  }
  return out;
}

void BM_SharedFabricTenants(benchmark::State& state) {
  // K tenants on the hybrid workload's 64-host 4:1 two-level tree, each
  // running a ring all-reduce over 64/K hosts strided across the ToRs (so
  // every ring crosses the oversubscribed uplinks), stepped through
  // SharedFabricTimer::begin_step as the runtime drives it: each session
  // begins its next step at its current step's (retimed) predicted end.
  // Exercises the max-min kernel, clone_live repredictions, and the replay
  // audit outside servebench.
  using wrht::util::Seconds;
  const auto tenants = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t num_hosts = 64;
  const wrht::elec::ElectricalCluster cluster =
      *wrht::elec::ElectricalCluster::two_level_tree(
          num_hosts, 8, 4.0, wrht::elec::ElectricalParams{});
  const std::uint32_t ring_size = num_hosts / tenants;
  std::vector<wrht::coll::Schedule> schedules;
  for (std::uint32_t k = 0; k < tenants; ++k) {
    std::vector<std::uint32_t> hosts;
    for (std::uint32_t j = 0; j < ring_size; ++j) {
      hosts.push_back(k + j * tenants);
    }
    schedules.push_back(on_hosts(wrht::coll::ring_allreduce(ring_size),
                                 hosts, num_hosts));
  }
  const wrht::util::Bytes payload = wrht::util::megabytes(4);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    wrht::elec::SharedFabricTimer timer(cluster);
    std::vector<wrht::elec::SharedFabricTimer::SessionId> sessions;
    std::vector<std::size_t> next_step(tenants, 0);
    std::vector<Seconds> ends(tenants, Seconds(0.0));
    std::vector<bool> running(tenants, true);
    for (std::uint32_t k = 0; k < tenants; ++k) {
      sessions.push_back(timer.open_session());
    }
    const auto begin = [&](std::uint32_t k) {
      const std::optional<Seconds> end = timer.begin_step(
          sessions[k], schedules[k], next_step[k]++, payload, ends[k]);
      if (!end) state.SkipWithError("shared fabric refused a step");
      ends[k] = end.value_or(ends[k]);
      // A fresh timer numbers sessions 0, 1, ... in opening order, so a
      // session id is its tenant's index.
      for (const auto& retiming : timer.take_retimings()) {
        ends[retiming.session] = retiming.end;
      }
      ++steps;
    };
    for (std::uint32_t k = 0; k < tenants; ++k) begin(k);
    for (;;) {
      // The earliest running session's step boundary fires next.
      std::optional<std::uint32_t> next;
      for (std::uint32_t k = 0; k < tenants; ++k) {
        if (running[k] && (!next || ends[k] < ends[*next])) next = k;
      }
      if (!next) break;
      if (next_step[*next] == schedules[*next].num_steps()) {
        timer.close_session(sessions[*next], ends[*next]);
        running[*next] = false;
      } else {
        begin(*next);
      }
    }
    const std::uint64_t mismatches = timer.verify_replay();
    benchmark::DoNotOptimize(mismatches);
    if (mismatches != 0) state.SkipWithError("replay audit disagreed");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SharedFabricTenants)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
