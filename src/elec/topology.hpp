// Electrical cluster topologies for the flow simulator.
//
// A cluster couples a routing graph with per-edge link specs; edge ids in
// the graph are link ids in any FlowNetwork the cluster instantiates, so a
// route computed on the graph can be handed straight to add_flow.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "elec/flow_network.hpp"
#include "topo/graph.hpp"
#include "util/units.hpp"

namespace wrht::elec {

struct ElectricalParams {
  util::Bandwidth link_bandwidth = util::gbps(10.0);
  util::Seconds link_latency = util::microseconds(25.0);
};

class ElectricalCluster {
 public:
  /// num_hosts hosts, each with one full-duplex link to a single switch.
  static ElectricalCluster star(std::uint32_t num_hosts,
                                const ElectricalParams& params);

  /// Hosts wired host i <-> host i+1 (mod n) directly (electrical ring).
  static ElectricalCluster ring(std::uint32_t num_hosts,
                                const ElectricalParams& params);

  /// Two-level tree: hosts -> ToR switches -> one core switch, with the
  /// ToR uplink carrying `oversubscription` x less bandwidth per host.
  /// Rejects a bad shape — fewer than 2 hosts, zero hosts per ToR, or a
  /// non-positive (or non-finite) oversubscription — by returning nullopt,
  /// so a caller wiring user-supplied config can surface the error instead
  /// of dying inside the library.
  static std::optional<ElectricalCluster> two_level_tree(
      std::uint32_t num_hosts, std::uint32_t hosts_per_tor,
      double oversubscription, const ElectricalParams& params);

  [[nodiscard]] std::uint32_t num_hosts() const {
    return static_cast<std::uint32_t>(hosts_.size());
  }
  [[nodiscard]] const topo::Graph& graph() const { return graph_; }

  /// Link ids along the route from host a to host b (a != b).
  /// Routes live in a dense host x host table filled lazily (each pair is
  /// routed on its first request, the table allocated on the first request
  /// of all), so building a cluster stays O(links).  The returned reference
  /// stays valid and unchanged for the cluster's lifetime; the cluster must
  /// outlive callers using it.
  [[nodiscard]] const std::vector<LinkId>& route(std::uint32_t host_a,
                                                 std::uint32_t host_b) const;

  /// A FlowNetwork whose link ids equal this cluster's graph edge ids.
  [[nodiscard]] FlowNetwork make_network() const;

  /// Per-hop latency of the route between two hosts.
  [[nodiscard]] util::Seconds route_latency(std::uint32_t host_a,
                                            std::uint32_t host_b) const;

  /// The access-link spec hosts were built with (identical for all hosts in
  /// every topology this class constructs).
  [[nodiscard]] const ElectricalParams& host_params() const {
    return host_params_;
  }

 private:
  topo::Graph graph_;
  std::vector<topo::VertexId> hosts_;
  ElectricalParams host_params_;
  std::vector<LinkSpec> link_specs_;  // indexed by edge id
  /// route_slot_[a * num_hosts + b] is 1 + the index of route (a, b) in
  /// routes_, or 0 while unrouted.  Both come into being on the first
  /// route() call (even an empty std::deque allocates); routes_ is a deque
  /// so appending never moves a route already handed out.
  mutable std::vector<std::uint32_t> route_slot_;
  mutable std::optional<std::deque<std::vector<LinkId>>> routes_;
};

}  // namespace wrht::elec
