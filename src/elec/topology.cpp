#include "elec/topology.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/math.hpp"

namespace wrht::elec {
namespace {

void add_duplex(topo::Graph& graph, std::vector<LinkSpec>& specs,
                topo::VertexId a, topo::VertexId b, const LinkSpec& spec) {
  graph.add_bidirectional_edge(a, b, /*weight=*/1.0);
  specs.push_back(spec);  // forward edge
  specs.push_back(spec);  // backward edge
}

}  // namespace

ElectricalCluster ElectricalCluster::star(std::uint32_t num_hosts,
                                          const ElectricalParams& params) {
  WRHT_REQUIRE(num_hosts >= 2, "ElectricalCluster::star needs >= 2 hosts, got "
                                   << num_hosts);
  ElectricalCluster cluster;
  cluster.host_params_ = params;
  const topo::VertexId sw = cluster.graph_.add_vertex("switch");
  const LinkSpec spec{params.link_bandwidth, params.link_latency};
  for (std::uint32_t h = 0; h < num_hosts; ++h) {
    const topo::VertexId v =
        cluster.graph_.add_vertex("host" + std::to_string(h));
    cluster.hosts_.push_back(v);
    add_duplex(cluster.graph_, cluster.link_specs_, v, sw, spec);
  }
  return cluster;
}

ElectricalCluster ElectricalCluster::ring(std::uint32_t num_hosts,
                                          const ElectricalParams& params) {
  WRHT_REQUIRE(num_hosts >= 2, "ElectricalCluster::ring needs >= 2 hosts, got "
                                   << num_hosts);
  ElectricalCluster cluster;
  cluster.host_params_ = params;
  const LinkSpec spec{params.link_bandwidth, params.link_latency};
  for (std::uint32_t h = 0; h < num_hosts; ++h) {
    cluster.hosts_.push_back(
        cluster.graph_.add_vertex("host" + std::to_string(h)));
  }
  for (std::uint32_t h = 0; h < num_hosts; ++h) {
    add_duplex(cluster.graph_, cluster.link_specs_, cluster.hosts_[h],
               cluster.hosts_[(h + 1) % num_hosts], spec);
  }
  return cluster;
}

std::optional<ElectricalCluster> ElectricalCluster::two_level_tree(
    std::uint32_t num_hosts, std::uint32_t hosts_per_tor,
    double oversubscription, const ElectricalParams& params) {
  if (num_hosts < 2 || hosts_per_tor == 0 || oversubscription <= 0.0 ||
      !std::isfinite(oversubscription)) {
    return std::nullopt;
  }
  ElectricalCluster cluster;
  cluster.host_params_ = params;
  const topo::VertexId core = cluster.graph_.add_vertex("core");
  const LinkSpec host_spec{params.link_bandwidth, params.link_latency};
  const std::uint32_t num_tors = static_cast<std::uint32_t>(
      util::ceil_div(num_hosts, hosts_per_tor));
  std::vector<topo::VertexId> tors;
  for (std::uint32_t t = 0; t < num_tors; ++t) {
    const topo::VertexId tor =
        cluster.graph_.add_vertex("tor" + std::to_string(t));
    tors.push_back(tor);
    // Uplink sized for the ToR's hosts, divided by the oversubscription.
    const std::uint32_t tor_hosts =
        std::min(hosts_per_tor, num_hosts - t * hosts_per_tor);
    const LinkSpec uplink{
        params.link_bandwidth * (tor_hosts / oversubscription),
        params.link_latency};
    add_duplex(cluster.graph_, cluster.link_specs_, tor, core, uplink);
  }
  for (std::uint32_t h = 0; h < num_hosts; ++h) {
    const topo::VertexId v =
        cluster.graph_.add_vertex("host" + std::to_string(h));
    cluster.hosts_.push_back(v);
    add_duplex(cluster.graph_, cluster.link_specs_, v, tors[h / hosts_per_tor],
               host_spec);
  }
  return cluster;
}

const std::vector<LinkId>& ElectricalCluster::route(
    std::uint32_t host_a, std::uint32_t host_b) const {
  WRHT_REQUIRE(host_a < num_hosts() && host_b < num_hosts() &&
                   host_a != host_b,
               "ElectricalCluster::route: bad hosts " << host_a << ","
                                                      << host_b);
  if (route_slot_.empty()) {
    route_slot_.assign(static_cast<std::size_t>(num_hosts()) * num_hosts(),
                       0);
    routes_.emplace();
  }
  std::uint32_t& slot =
      route_slot_[static_cast<std::size_t>(host_a) * num_hosts() + host_b];
  if (slot != 0) return (*routes_)[slot - 1];

  auto path = graph_.shortest_path(hosts_[host_a], hosts_[host_b]);
  WRHT_CHECK(path.has_value(),
             "ElectricalCluster::route: hosts " << host_a << "," << host_b
                                                << " unreachable");
  routes_->push_back(std::move(*path));
  slot = static_cast<std::uint32_t>(routes_->size());
  return routes_->back();
}

FlowNetwork ElectricalCluster::make_network() const {
  return FlowNetwork(link_specs_);
}

util::Seconds ElectricalCluster::route_latency(std::uint32_t host_a,
                                               std::uint32_t host_b) const {
  util::Seconds total{0.0};
  for (const LinkId link : route(host_a, host_b)) {
    total += link_specs_[link].latency;
  }
  return total;
}

}  // namespace wrht::elec
