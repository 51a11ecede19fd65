#include "elec/flow_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "elec/topology.hpp"
#include "util/random.hpp"

namespace wrht::elec {
namespace {

using util::Bytes;
using util::Seconds;

LinkSpec link_1gBps_no_latency() {
  return LinkSpec{util::gBps(1.0), Seconds(0.0)};
}

TEST(FlowNetwork, SingleFlowFullBandwidth) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  const FlowId flow = network.add_flow({link}, Bytes(500'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(flow).value(), 0.5, 1e-9);
}

TEST(FlowNetwork, LatencyDelaysCompletion) {
  FlowNetwork network;
  const LinkId link =
      network.add_link({util::gBps(1.0), util::microseconds(100.0)});
  const FlowId flow = network.add_flow({link}, Bytes(1'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(flow).value(), 100e-6 + 1e-3, 1e-12);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  const FlowId a = network.add_flow({link}, Bytes(1'000'000'000));
  const FlowId b = network.add_flow({link}, Bytes(1'000'000'000));
  network.run();
  // Both get 0.5 GB/s: each 1 GB flow takes 2 s.
  EXPECT_NEAR(network.completion_time(a).value(), 2.0, 1e-9);
  EXPECT_NEAR(network.completion_time(b).value(), 2.0, 1e-9);
}

TEST(FlowNetwork, ShortFlowFinishesThenLongSpeedsUp) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  const FlowId small = network.add_flow({link}, Bytes(250'000'000));
  const FlowId large = network.add_flow({link}, Bytes(750'000'000));
  network.run();
  // Phase 1: both at 0.5 GB/s until small (0.25 GB) finishes at t=0.5.
  // Phase 2: large has 0.5 GB left at 1 GB/s -> finishes at t=1.0.
  EXPECT_NEAR(network.completion_time(small).value(), 0.5, 1e-9);
  EXPECT_NEAR(network.completion_time(large).value(), 1.0, 1e-9);
}

TEST(FlowNetwork, MaxMinDemandConstrainedFlow) {
  // Classic max-min example: two links A (1 GB/s) and B (1 GB/s).
  //   flow1 uses A only, flow2 uses B only, flow3 uses A and B.
  // Fair share: flow3 gets 0.5 on both, flows 1-2 get 0.5... then residual
  // rises: actually A carries flow1+flow3, B carries flow2+flow3; max-min
  // gives every flow 0.5 GB/s.
  FlowNetwork network;
  const LinkId link_a = network.add_link(link_1gBps_no_latency());
  const LinkId link_b = network.add_link(link_1gBps_no_latency());
  const FlowId f1 = network.add_flow({link_a}, Bytes(500'000'000));
  const FlowId f2 = network.add_flow({link_b}, Bytes(500'000'000));
  const FlowId f3 = network.add_flow({link_a, link_b}, Bytes(500'000'000));
  EXPECT_NEAR(network.current_rate(f1), 0.0, 1e-9);  // not yet running
  network.run();
  EXPECT_NEAR(network.completion_time(f1).value(), 1.0, 1e-6);
  EXPECT_NEAR(network.completion_time(f2).value(), 1.0, 1e-6);
  EXPECT_NEAR(network.completion_time(f3).value(), 1.0, 1e-6);
}

TEST(FlowNetwork, BottleneckAndFreeLink) {
  // flow1 crosses the shared link and a private link; flow2 only the shared
  // link.  Shared link is the bottleneck: both get 0.5 GB/s.
  FlowNetwork network;
  const LinkId shared = network.add_link(link_1gBps_no_latency());
  const LinkId private_link = network.add_link(link_1gBps_no_latency());
  const FlowId f1 =
      network.add_flow({shared, private_link}, Bytes(500'000'000));
  const FlowId f2 = network.add_flow({shared}, Bytes(500'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(f1).value(), 1.0, 1e-6);
  EXPECT_NEAR(network.completion_time(f2).value(), 1.0, 1e-6);
}

TEST(FlowNetwork, UnequalCapacitiesMaxMin) {
  // Slow link 0.2 GB/s shared by f1; fast link 1.0 GB/s shared by f1 and f2.
  // f1 is capped at 0.2 by its slow link; f2 then gets the residual 0.8.
  FlowNetwork network;
  const LinkId slow = network.add_link({util::gBps(0.2), Seconds(0.0)});
  const LinkId fast = network.add_link(link_1gBps_no_latency());
  const FlowId f1 = network.add_flow({slow, fast}, Bytes(200'000'000));
  const FlowId f2 = network.add_flow({fast}, Bytes(800'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(f1).value(), 1.0, 1e-6);
  EXPECT_NEAR(network.completion_time(f2).value(), 1.0, 1e-6);
}

TEST(FlowNetwork, IncastCongestion) {
  // 8 flows into one destination link: each gets 1/8 of the capacity.
  FlowNetwork network;
  const LinkId dst = network.add_link(link_1gBps_no_latency());
  std::vector<FlowId> flows;
  for (int i = 0; i < 8; ++i) {
    flows.push_back(network.add_flow({dst}, Bytes(125'000'000)));
  }
  network.run();
  for (const FlowId f : flows) {
    EXPECT_NEAR(network.completion_time(f).value(), 1.0, 1e-6);
  }
}

TEST(FlowNetwork, StaggeredStartTimes) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  const FlowId first = network.add_flow({link}, Bytes(1'000'000'000));
  network.run();  // completes at t=1
  const FlowId second = network.add_flow({link}, Bytes(500'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(first).value(), 1.0, 1e-9);
  EXPECT_NEAR(network.completion_time(second).value(), 1.5, 1e-9);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAtLatency) {
  FlowNetwork network;
  const LinkId link =
      network.add_link({util::gBps(1.0), util::microseconds(50.0)});
  const FlowId flow = network.add_flow({link}, Bytes(0));
  network.run();
  EXPECT_NEAR(network.completion_time(flow).value(), 50e-6, 1e-12);
}

TEST(FlowNetwork, LinkBytesAccounting) {
  FlowNetwork network;
  const LinkId a = network.add_link(link_1gBps_no_latency());
  const LinkId b = network.add_link(link_1gBps_no_latency());
  network.add_flow({a, b}, Bytes(1'000'000));
  network.add_flow({a}, Bytes(2'000'000));
  network.run();
  EXPECT_EQ(network.link_bytes(a).count(), 3'000'000u);
  EXPECT_EQ(network.link_bytes(b).count(), 1'000'000u);
}

TEST(FlowNetwork, ResetClearsFlowsKeepsLinks) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  network.add_flow({link}, Bytes(1'000'000));
  network.run();
  network.reset();
  EXPECT_DOUBLE_EQ(network.now().value(), 0.0);
  EXPECT_EQ(network.link_bytes(link).count(), 0u);
  const FlowId flow = network.add_flow({link}, Bytes(1'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(flow).value(), 1e-3, 1e-9);
}

TEST(FlowNetwork, RunWithNoFlowsReturnsNow) {
  FlowNetwork network;
  network.add_link(link_1gBps_no_latency());
  EXPECT_DOUBLE_EQ(network.run().value(), 0.0);
}

TEST(FlowNetwork, ManyFlowsRingPatternNoContention) {
  // Ring neighbour pattern over a star: every host sends to the next host.
  // Each flow crosses (uplink_i, downlink_{i+1}); no two flows share a link,
  // so all run at full rate — the property that makes E-Ring's step time
  // equal the alpha-beta prediction.
  FlowNetwork network;
  const int n = 16;
  std::vector<LinkId> up(static_cast<std::size_t>(n));
  std::vector<LinkId> down(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    up[static_cast<std::size_t>(i)] = network.add_link(link_1gBps_no_latency());
    down[static_cast<std::size_t>(i)] =
        network.add_link(link_1gBps_no_latency());
  }
  std::vector<FlowId> flows;
  for (int i = 0; i < n; ++i) {
    flows.push_back(network.add_flow(
        {up[static_cast<std::size_t>(i)],
         down[static_cast<std::size_t>((i + 1) % n)]},
        Bytes(100'000'000)));
  }
  network.run();
  for (const FlowId f : flows) {
    EXPECT_NEAR(network.completion_time(f).value(), 0.1, 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Link-conservation invariant: whatever max-min fair shares the solver hands
// out instant by instant, the BYTES a link ends up carrying must equal the
// sum of the bytes of every flow routed over it — fluid fairness reshuffles
// rates, never volume.  Checked under randomized flow sets on both cluster
// shapes the runtime uses.

namespace link_conservation {

/// Drop `num_flows` random host-to-host flows (random sizes, staggered via
/// run_until checkpoints) on `cluster` and check per-link byte conservation.
void check_cluster(const wrht::elec::ElectricalCluster& cluster,
                   std::uint64_t seed, std::uint32_t num_flows) {
  using namespace wrht::elec;
  wrht::util::Rng rng(seed);
  FlowNetwork network = cluster.make_network();
  std::vector<double> expected(network.num_links(), 0.0);

  for (std::uint32_t f = 0; f < num_flows; ++f) {
    const auto a =
        static_cast<std::uint32_t>(rng.next_below(cluster.num_hosts()));
    auto b = static_cast<std::uint32_t>(rng.next_below(cluster.num_hosts()));
    if (b == a) b = (b + 1) % cluster.num_hosts();
    const Bytes bytes(1000 + rng.next_below(50'000'000));
    for (const LinkId link : cluster.route(a, b)) {
      expected[link] += bytes.as_double();
    }
    network.add_flow(cluster.route(a, b), bytes);
    if (rng.next_below(3) == 0) {
      // Stagger: advance mid-flight so later flows join a loaded network.
      network.run_until(network.now() + Seconds(1e-3));
    }
  }
  network.run();

  for (std::size_t link = 0; link < network.num_links(); ++link) {
    // kEpsilonBytes truncation loses at most a milli-byte per flow.
    const double tolerance = 1e-2 * num_flows + 1e-6 * expected[link];
    EXPECT_NEAR(network.link_bytes(static_cast<LinkId>(link)).as_double(),
                expected[link], tolerance)
        << "link " << link << " seed " << seed;
    // A link's peak utilization is a fraction of its capacity by
    // construction; conservation's sibling sanity bound.
    const double peak =
        network.link_peak_utilization(static_cast<LinkId>(link));
    EXPECT_GE(peak, 0.0);
    EXPECT_LE(peak, 1.0 + 1e-9);
  }
}

}  // namespace link_conservation

TEST(FlowNetwork, LinkConservationOnRandomizedStar) {
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    link_conservation::check_cluster(
        ElectricalCluster::star(12, ElectricalParams{}), seed, 60);
  }
}

TEST(FlowNetwork, LinkConservationOnRandomizedTwoLevelTree) {
  for (const std::uint64_t seed : {5ull, 17ull, 91ull}) {
    link_conservation::check_cluster(
        *ElectricalCluster::two_level_tree(16, 4, 4.0, ElectricalParams{}),
        seed, 80);
  }
}

// ---------------------------------------------------------------------------
// Lockstep differential test of the filling kernel.  TextbookNetwork is the
// straightforward max-min fluid network FlowNetwork's kernel was derived
// from: every link scanned in every filling round, one std::vector route
// per flow, a full re-solve before every event.  FlowNetwork must agree
// with it bit for bit (==, not NEAR) on every observable, under random
// staggered arrivals, clone_live forward runs, retirement and reset.

namespace lockstep {

class TextbookNetwork {
 public:
  explicit TextbookNetwork(const FlowNetwork& shape) {
    for (std::size_t l = 0; l < shape.num_links(); ++l) {
      links_.push_back(Link{shape.link_spec(static_cast<LinkId>(l))});
    }
  }

  FlowId add_flow(std::vector<LinkId> route, Bytes bytes) {
    Seconds latency{0.0};
    for (const LinkId link : route) latency += links_[link].spec.latency;
    Flow flow;
    flow.route = std::move(route);
    flow.remaining = bytes.as_double();
    flow.activation = now_ + latency;
    flows_.push_back(std::move(flow));
    const FlowId id = base_ + static_cast<FlowId>(flows_.size() - 1);
    live_.push_back(id);
    return id;
  }

  Seconds run() {
    return run_until(Seconds(std::numeric_limits<double>::infinity()));
  }

  Seconds run_until(Seconds horizon) {
    while (!live_.empty()) {
      recompute_rates();
      const Seconds when = next_event_time();
      if (when > horizon) break;
      advance_to(when);
      settle();
    }
    if (std::isfinite(horizon.value()) && horizon > now_) {
      advance_to(horizon);
      settle();
    }
    return now_;
  }

  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] FlowId id_floor() const { return base_; }
  [[nodiscard]] bool completed(FlowId f) const {
    return flow_ref(f).state == State::kDone;
  }
  [[nodiscard]] Seconds completion_time(FlowId f) const {
    return flow_ref(f).completion;
  }
  [[nodiscard]] double current_rate(FlowId f) const {
    const Flow& flow = flow_ref(f);
    return flow.state == State::kActive ? flow.rate : 0.0;
  }
  [[nodiscard]] Bytes link_bytes(LinkId l) const {
    return Bytes(static_cast<std::uint64_t>(links_[l].carried_bytes + 0.5));
  }
  [[nodiscard]] double link_utilization(LinkId l) const {
    return links_[l].utilization;
  }
  [[nodiscard]] double link_peak_utilization(LinkId l) const {
    return links_[l].peak_utilization;
  }

  [[nodiscard]] TextbookNetwork clone_live(std::vector<FlowId>& id_map) const {
    TextbookNetwork copy = *this;
    copy.flows_.clear();
    copy.live_.clear();
    copy.base_ = 0;
    id_map.assign(flows_.size(), kNoFlow);
    for (const FlowId f : live_) {
      id_map[f - base_] = static_cast<FlowId>(copy.flows_.size());
      copy.live_.push_back(static_cast<FlowId>(copy.flows_.size()));
      copy.flows_.push_back(flow_ref(f));
    }
    return copy;
  }

  void retire_done_below(FlowId floor) {
    const FlowId oldest_live =
        live_.empty() ? base_ + static_cast<FlowId>(flows_.size())
                      : live_.front();
    floor = std::min(floor, oldest_live);
    if (floor <= base_) return;
    const std::size_t drop = floor - base_;
    if (drop < 64 && drop * 2 < flows_.size()) return;
    flows_.erase(flows_.begin(),
                 flows_.begin() + static_cast<std::ptrdiff_t>(drop));
    base_ = floor;
  }

  void reset() {
    flows_.clear();
    live_.clear();
    base_ = 0;
    now_ = Seconds(0.0);
    for (Link& link : links_) {
      link.carried_bytes = 0.0;
      link.peak_utilization = 0.0;
      link.utilization = 0.0;
    }
  }

 private:
  enum class State : std::uint8_t { kWaiting, kActive, kDone };
  struct Link {
    LinkSpec spec;
    double carried_bytes = 0.0;
    double peak_utilization = 0.0;
    double utilization = 0.0;
  };
  struct Flow {
    std::vector<LinkId> route;
    double remaining = 0.0;
    double rate = 0.0;
    Seconds activation{0.0};
    Seconds completion{0.0};
    State state = State::kWaiting;
  };

  Flow& flow_ref(FlowId id) { return flows_[id - base_]; }
  const Flow& flow_ref(FlowId id) const { return flows_[id - base_]; }

  void recompute_rates() {
    const std::size_t n = links_.size();
    std::vector<double> residual(n);
    std::vector<std::uint32_t> crossing(n, 0);
    for (std::size_t l = 0; l < n; ++l) {
      residual[l] = links_[l].spec.capacity.bytes_per_second();
    }
    std::vector<FlowId> unfixed;
    for (const FlowId f : live_) {
      Flow& flow = flow_ref(f);
      if (flow.state != State::kActive) continue;
      flow.rate = 0.0;
      unfixed.push_back(f);
      for (const LinkId link : flow.route) ++crossing[link];
    }
    while (!unfixed.empty()) {
      double min_share = std::numeric_limits<double>::infinity();
      for (std::size_t l = 0; l < n; ++l) {
        if (crossing[l] == 0) continue;
        min_share = std::min(min_share, residual[l] / crossing[l]);
      }
      std::vector<FlowId> still_unfixed;
      for (const FlowId f : unfixed) {
        Flow& flow = flow_ref(f);
        const bool bottlenecked = std::any_of(
            flow.route.begin(), flow.route.end(), [&](LinkId link) {
              return residual[link] / crossing[link] <=
                     min_share * (1 + 1e-12);
            });
        if (bottlenecked) {
          flow.rate = min_share;
        } else {
          still_unfixed.push_back(f);
        }
      }
      for (const FlowId f : unfixed) {
        const Flow& flow = flow_ref(f);
        if (flow.rate <= 0.0) continue;
        for (const LinkId link : flow.route) {
          residual[link] -= flow.rate;
          if (residual[link] < 0.0) residual[link] = 0.0;
          --crossing[link];
        }
      }
      unfixed = std::move(still_unfixed);
    }
    std::vector<double> allocated(n, 0.0);
    for (const FlowId f : live_) {
      const Flow& flow = flow_ref(f);
      if (flow.state != State::kActive) continue;
      for (const LinkId link : flow.route) allocated[link] += flow.rate;
    }
    for (std::size_t l = 0; l < n; ++l) {
      links_[l].utilization =
          allocated[l] / links_[l].spec.capacity.bytes_per_second();
      links_[l].peak_utilization =
          std::max(links_[l].peak_utilization, links_[l].utilization);
    }
  }

  [[nodiscard]] Seconds next_event_time() const {
    Seconds next{std::numeric_limits<double>::infinity()};
    for (const FlowId f : live_) {
      const Flow& flow = flow_ref(f);
      if (flow.state == State::kWaiting) {
        next = std::min(next, flow.activation);
      } else if (flow.state == State::kActive && flow.rate > 0.0) {
        next = std::min(next, now_ + Seconds(flow.remaining / flow.rate));
      }
    }
    return next;
  }

  void advance_to(Seconds when) {
    const double dt = (when - now_).value();
    for (const FlowId f : live_) {
      Flow& flow = flow_ref(f);
      if (flow.state != State::kActive) continue;
      const double moved = flow.rate * dt;
      flow.remaining -= moved;
      for (const LinkId link : flow.route) {
        links_[link].carried_bytes += moved;
      }
    }
    now_ = when;
  }

  void settle() {
    for (const FlowId f : live_) {
      Flow& flow = flow_ref(f);
      if (flow.state == State::kWaiting && flow.activation <= now_) {
        flow.state = State::kActive;
      }
      if (flow.state == State::kActive && flow.remaining <= 1e-3) {
        flow.state = State::kDone;
        flow.completion = now_;
        flow.rate = 0.0;
      }
    }
    live_.erase(std::remove_if(live_.begin(), live_.end(),
                               [&](FlowId f) { return completed(f); }),
                live_.end());
  }

  std::vector<Link> links_;
  std::vector<Flow> flows_;
  FlowId base_ = 0;
  std::vector<FlowId> live_;
  Seconds now_{0.0};
};

/// Every observable of the two networks, compared exactly: the clock, each
/// unretired flow's completion state, time and current rate, and each
/// link's utilization, peak and carried bytes.
void expect_identical(const FlowNetwork& fast, const TextbookNetwork& ref,
                      FlowId next_id, const std::string& where) {
  ASSERT_EQ(fast.now().value(), ref.now().value()) << where;
  ASSERT_EQ(fast.id_floor(), ref.id_floor()) << where;
  for (FlowId f = fast.id_floor(); f < next_id; ++f) {
    ASSERT_EQ(fast.completed(f), ref.completed(f)) << where << " flow " << f;
    if (fast.completed(f)) {
      EXPECT_EQ(fast.completion_time(f).value(),
                ref.completion_time(f).value())
          << where << " flow " << f;
    }
    EXPECT_EQ(fast.current_rate(f), ref.current_rate(f))
        << where << " flow " << f;
  }
  for (std::size_t l = 0; l < fast.num_links(); ++l) {
    const auto link = static_cast<LinkId>(l);
    EXPECT_EQ(fast.link_utilization(link), ref.link_utilization(link))
        << where << " link " << l;
    EXPECT_EQ(fast.link_peak_utilization(link),
              ref.link_peak_utilization(link))
        << where << " link " << l;
    EXPECT_EQ(fast.link_bytes(link).count(), ref.link_bytes(link).count())
        << where << " link " << l;
  }
}

/// Drive FlowNetwork and TextbookNetwork through the same seeded random
/// operation sequence on `cluster`, comparing after every operation.
void run_lockstep(const ElectricalCluster& cluster, std::uint64_t seed,
                  int num_ops) {
  util::Rng rng(seed);
  FlowNetwork fast = cluster.make_network();
  TextbookNetwork ref(fast);
  FlowId next_id = 0;
  const std::uint32_t hosts = cluster.num_hosts();
  for (int op = 0; op < num_ops; ++op) {
    const std::string where = "seed " + std::to_string(seed) + " op " +
                              std::to_string(op);
    const std::uint64_t kind = rng.next_below(20);
    if (kind < 9) {
      // A burst of flows joining whatever is in flight.
      const std::uint64_t burst = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < burst; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next_below(hosts));
        auto b = static_cast<std::uint32_t>(rng.next_below(hosts - 1));
        if (b >= a) ++b;
        const Bytes bytes(rng.next_below(8) == 0
                              ? rng.next_below(2'000)
                              : 1'000 + rng.next_below(20'000'000));
        const FlowId id = fast.add_flow(cluster.route(a, b), bytes);
        ASSERT_EQ(id, ref.add_flow(cluster.route(a, b), bytes)) << where;
        ASSERT_EQ(id, next_id++) << where;
      }
    } else if (kind < 15) {
      // Split the drain at a random horizon; now() itself included.
      const Seconds horizon =
          fast.now() +
          Seconds(rng.next_below(4) == 0
                      ? 0.0
                      : static_cast<double>(rng.next_below(3'000)) * 1e-6);
      fast.run_until(horizon);
      ref.run_until(horizon);
    } else if (kind < 17) {
      // What-if forward run on live-flow copies.
      std::vector<FlowId> fast_map;
      std::vector<FlowId> ref_map;
      FlowNetwork fast_copy = fast.clone_live(fast_map);
      TextbookNetwork ref_copy = ref.clone_live(ref_map);
      ASSERT_EQ(fast_map, ref_map) << where;
      expect_identical(fast_copy, ref_copy, 0, where + " (clone)");
      fast_copy.run();
      ref_copy.run();
      const auto copied = static_cast<FlowId>(std::count_if(
          fast_map.begin(), fast_map.end(),
          [](FlowId f) { return f != kNoFlow; }));
      expect_identical(fast_copy, ref_copy, copied, where + " (forward)");
    } else if (kind < 19) {
      // Half the time everything done so far, else a random prefix.
      const FlowId floor =
          rng.next_below(2) == 0
              ? next_id
              : fast.id_floor() + static_cast<FlowId>(rng.next_below(
                                      next_id - fast.id_floor() + 1));
      fast.retire_done_below(floor);
      ref.retire_done_below(floor);
    } else {
      // Drain, compare, then reuse the same networks from a clean slate.
      fast.run();
      ref.run();
      expect_identical(fast, ref, next_id, where + " (drained)");
      fast.reset();
      ref.reset();
      next_id = 0;
    }
    expect_identical(fast, ref, next_id, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
  fast.run();
  ref.run();
  expect_identical(fast, ref, next_id, "final drain");
}

}  // namespace lockstep

TEST(FlowNetworkLockstep, MatchesTextbookFillingOnStar) {
  const ElectricalCluster cluster =
      ElectricalCluster::star(12, ElectricalParams{});
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    lockstep::run_lockstep(cluster, seed, 400);
  }
}

TEST(FlowNetworkLockstep, MatchesTextbookFillingOnRing) {
  const ElectricalCluster cluster =
      ElectricalCluster::ring(10, ElectricalParams{});
  for (const std::uint64_t seed : {5ull, 6ull, 7ull, 8ull}) {
    lockstep::run_lockstep(cluster, seed, 400);
  }
}

TEST(FlowNetworkLockstep, MatchesTextbookFillingOnOversubscribedTree) {
  // 64 hosts under 8 ToRs at 4:1 — the hybrid workload's shared fabric.
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(64, 8, 4.0, ElectricalParams{});
  for (const std::uint64_t seed : {9ull, 10ull, 11ull, 12ull}) {
    lockstep::run_lockstep(cluster, seed, 400);
  }
}

TEST(FlowNetwork, SolvesOnlyWhenTheActiveSetChanges) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  // A fresh network holds the empty set's solution: no solve to start.
  const FlowId a = network.add_flow({link}, Bytes(1'000'000'000));
  const FlowId b = network.add_flow({link}, Bytes(500'000'000));
  EXPECT_EQ(network.rate_solves(), 0u);
  network.run_until(Seconds(0.25));  // both activate at 0: one solve
  EXPECT_EQ(network.rate_solves(), 1u);
  EXPECT_DOUBLE_EQ(network.current_rate(a), 0.5e9);

  // No activation or completion on the way: no solve, same rates.
  network.run_until(network.now());
  network.run_until(Seconds(0.5));
  EXPECT_EQ(network.rate_solves(), 1u);
  EXPECT_DOUBLE_EQ(network.current_rate(b), 0.5e9);

  // A live-flows copy carries the solved state.
  std::vector<FlowId> id_map;
  FlowNetwork copy = network.clone_live(id_map);
  EXPECT_EQ(copy.rate_solves(), 0u);
  EXPECT_DOUBLE_EQ(copy.current_rate(id_map[a]), 0.5e9);
  copy.run_until(copy.now());
  EXPECT_EQ(copy.rate_solves(), 0u);

  // b completes at 1.0 s: one re-solve for a alone, then nothing is live.
  network.run();
  EXPECT_EQ(network.rate_solves(), 2u);
  EXPECT_DOUBLE_EQ(network.completion_time(b).value(), 1.0);
  EXPECT_DOUBLE_EQ(network.completion_time(a).value(), 1.5);
}

}  // namespace
}  // namespace wrht::elec
