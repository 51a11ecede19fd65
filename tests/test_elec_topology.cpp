#include "elec/topology.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace wrht::elec {
namespace {

ElectricalParams test_params() {
  ElectricalParams p;
  p.link_bandwidth = util::gBps(1.0);
  p.link_latency = util::microseconds(25.0);
  return p;
}

TEST(Star, ShapeAndRoutes) {
  const ElectricalCluster cluster = ElectricalCluster::star(8, test_params());
  EXPECT_EQ(cluster.num_hosts(), 8u);
  // 8 duplex host links = 16 directed edges, plus the switch vertex.
  EXPECT_EQ(cluster.graph().num_edges(), 16u);
  EXPECT_EQ(cluster.graph().num_vertices(), 9u);
  const auto& route = cluster.route(0, 5);
  EXPECT_EQ(route.size(), 2u);  // host->switch->host
}

TEST(Star, RouteLatencyIsTwoHops) {
  const ElectricalCluster cluster = ElectricalCluster::star(4, test_params());
  EXPECT_NEAR(cluster.route_latency(0, 3).value(), 50e-6, 1e-12);
}

TEST(Star, RoutesAreCachedAndStable) {
  const ElectricalCluster cluster = ElectricalCluster::star(4, test_params());
  const auto* first = &cluster.route(1, 2);
  const auto* second = &cluster.route(1, 2);
  EXPECT_EQ(first, second);
}

TEST(Star, FlowBetweenHostsSeesFullBandwidth) {
  const ElectricalCluster cluster = ElectricalCluster::star(4, test_params());
  FlowNetwork network = cluster.make_network();
  const FlowId flow =
      network.add_flow(cluster.route(0, 2), util::Bytes(1'000'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(flow).value(), 1.0 + 50e-6, 1e-6);
}

TEST(Ring, ShapeAndRoutes) {
  const ElectricalCluster cluster = ElectricalCluster::ring(8, test_params());
  EXPECT_EQ(cluster.num_hosts(), 8u);
  EXPECT_EQ(cluster.graph().num_edges(), 16u);  // 8 duplex spans
  EXPECT_EQ(cluster.route(0, 1).size(), 1u);
  EXPECT_EQ(cluster.route(0, 4).size(), 4u);
  // Shortest path goes the short way around.
  EXPECT_EQ(cluster.route(0, 7).size(), 1u);
}

TEST(TwoLevelTree, HostsRouteThroughTorAndCore) {
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(8, 4, 1.0, test_params());
  EXPECT_EQ(cluster.num_hosts(), 8u);
  // Same-ToR pair: host->tor->host (2 links).
  EXPECT_EQ(cluster.route(0, 1).size(), 2u);
  // Cross-ToR pair: host->tor->core->tor->host (4 links).
  EXPECT_EQ(cluster.route(0, 5).size(), 4u);
}

TEST(TwoLevelTree, OversubscriptionCongestsUplink) {
  // 1:4 oversubscription: the ToR uplink carries 1 GB/s for 4 hosts.  Four
  // simultaneous cross-ToR flows share it at 0.25 GB/s each.
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(8, 4, 4.0, test_params());
  FlowNetwork network = cluster.make_network();
  std::vector<FlowId> flows;
  for (std::uint32_t h = 0; h < 4; ++h) {
    flows.push_back(
        network.add_flow(cluster.route(h, 4 + h), util::Bytes(250'000'000)));
  }
  network.run();
  for (const FlowId flow : flows) {
    EXPECT_NEAR(network.completion_time(flow).value(), 1.0, 0.01);
  }
}

TEST(TwoLevelTree, FullBisectionDoesNotCongest) {
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(8, 4, 1.0, test_params());
  FlowNetwork network = cluster.make_network();
  std::vector<FlowId> flows;
  for (std::uint32_t h = 0; h < 4; ++h) {
    flows.push_back(
        network.add_flow(cluster.route(h, 4 + h), util::Bytes(1'000'000'000)));
  }
  network.run();
  for (const FlowId flow : flows) {
    EXPECT_NEAR(network.completion_time(flow).value(), 1.0, 0.01);
  }
}

TEST(TwoLevelTree, RejectsBadShapes) {
  // Every malformed shape is a recoverable nullopt, never an abort: too few
  // hosts, zero hosts per ToR, and a non-positive or non-finite
  // oversubscription factor.
  EXPECT_FALSE(ElectricalCluster::two_level_tree(1, 4, 1.0, test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(0, 4, 1.0, test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(8, 0, 1.0, test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(8, 4, 0.0, test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(8, 4, -2.0, test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(
      8, 4, std::numeric_limits<double>::quiet_NaN(), test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(
      8, 4, std::numeric_limits<double>::infinity(), test_params()));
  // The boundary shapes are all accepted.
  EXPECT_TRUE(ElectricalCluster::two_level_tree(2, 1, 1.0, test_params()));
  EXPECT_TRUE(ElectricalCluster::two_level_tree(8, 16, 8.0, test_params()));
}

TEST(RouteTable, ReferencesSurviveRoutingEveryOtherPair) {
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(64, 4, 4.0, test_params());
  const std::vector<LinkId>& held = cluster.route(3, 42);
  const std::vector<LinkId> expected = held;
  const LinkId* held_data = held.data();
  ASSERT_EQ(expected.size(), 4u);  // host -> ToR -> core -> ToR -> host
  for (std::uint32_t a = 0; a < cluster.num_hosts(); ++a) {
    for (std::uint32_t b = 0; b < cluster.num_hosts(); ++b) {
      if (a != b) (void)cluster.route(a, b);
    }
  }
  EXPECT_EQ(&cluster.route(3, 42), &held);
  EXPECT_EQ(held.data(), held_data);
  EXPECT_EQ(held, expected);
}

TEST(RouteTable, CopiedClusterRoutesIdentically) {
  const ElectricalCluster original =
      *ElectricalCluster::two_level_tree(16, 4, 4.0, test_params());
  (void)original.route(0, 9);  // the copy inherits a partly filled table
  const ElectricalCluster copy = original;
  for (std::uint32_t a = 0; a < original.num_hosts(); ++a) {
    for (std::uint32_t b = 0; b < original.num_hosts(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(copy.route(a, b), original.route(a, b)) << a << "->" << b;
      EXPECT_NE(&copy.route(a, b), &original.route(a, b));
    }
  }
}

TEST(RouteTableDeathTest, SelfAndOutOfRangeRoutesDie) {
  const ElectricalCluster cluster = ElectricalCluster::star(4, test_params());
  EXPECT_DEATH((void)cluster.route(2, 2), "bad hosts 2,2");
  EXPECT_DEATH((void)cluster.route(0, 4), "bad hosts 0,4");
  EXPECT_DEATH((void)cluster.route(7, 1), "bad hosts 7,1");
}

TEST(Cluster, MakeNetworkLinkCountMatchesEdges) {
  const ElectricalCluster cluster = ElectricalCluster::star(6, test_params());
  const FlowNetwork network = cluster.make_network();
  EXPECT_EQ(network.num_links(), cluster.graph().num_edges());
}

}  // namespace
}  // namespace wrht::elec
