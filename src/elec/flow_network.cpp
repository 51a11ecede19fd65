#include "elec/flow_network.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace wrht::elec {
namespace {

// Residual bytes below this threshold count as delivered; keeps the fluid
// arithmetic robust against double rounding without affecting timing at any
// realistic message size.  The margin is sized for run_until-driven
// networks, where one flow's drain is split across several advance points
// (each tenant arrival is one) and the rounding of rate*dt accumulates per
// split: a milli-byte is still under a picosecond at any modeled link rate.
constexpr double kEpsilonBytes = 1e-3;

}  // namespace

FlowNetwork::FlowNetwork(std::span<const LinkSpec> links) {
  links_.reserve(links.size());
  for (const LinkSpec& spec : links) add_link(spec);
}

LinkId FlowNetwork::add_link(LinkSpec spec) {
  WRHT_REQUIRE(spec.capacity.bytes_per_second() > 0.0,
               "FlowNetwork: link capacity must be positive, got "
                   << spec.capacity.bytes_per_second() << " B/s");
  links_.push_back(Link{spec, 0.0});
  return static_cast<LinkId>(links_.size() - 1);
}

FlowId FlowNetwork::add_flow(std::span<const LinkId> route,
                             util::Bytes bytes) {
  util::Seconds latency{0.0};
  for (const LinkId link : route) {
    WRHT_REQUIRE(link < links_.size(),
                 "FlowNetwork: route uses unknown link " << link);
    latency += links_[link].spec.latency;
  }
  WRHT_CHECK(route_pool_.size() + route.size() <=
                 std::numeric_limits<std::uint32_t>::max(),
             "FlowNetwork: route pool overflow ("
                 << route_pool_.size() << " links held)");
  Flow flow;
  flow.route_offset = static_cast<std::uint32_t>(route_pool_.size());
  flow.route_len = static_cast<std::uint32_t>(route.size());
  route_pool_.insert(route_pool_.end(), route.begin(), route.end());
  flow.remaining = bytes.as_double();
  flow.activation = now_ + latency;
  flows_.push_back(flow);
  const FlowId id = base_ + static_cast<FlowId>(flows_.size() - 1);
  live_.push_back(id);
  return id;
}

void FlowNetwork::recompute_rates() {
  ++rate_solves_;
  rates_stale_ = false;
  // The previous solve's links fall back to zero unless touched again.
  for (const LinkId l : touched_) links_[l].utilization = 0.0;
  touched_.clear();
  unfixed_.clear();

  // Progressive filling over the active flows, in live order.  A link's
  // first crossing enrolls it in the touched set.
  for (const FlowId f : live_) {
    Flow& flow = flow_ref(f);
    if (flow.state != FlowState::kActive) continue;
    flow.rate = 0.0;
    unfixed_.push_back(f - base_);
    for (const LinkId l : route_of(flow)) {
      Link& link = links_[l];
      if (link.crossing++ == 0) {
        link.residual = link.spec.capacity.bytes_per_second();
        touched_.push_back(l);
      }
    }
  }

  while (!unfixed_.empty()) {
    // The bottleneck link offers the smallest fair share (an exact min, so
    // the touched-set order does not matter).
    double min_share = std::numeric_limits<double>::infinity();
    for (const LinkId l : touched_) {
      Link& link = links_[l];
      if (link.crossing == 0) continue;
      link.share = link.residual / link.crossing;
      min_share = std::min(min_share, link.share);
    }
    // Flows with empty routes have no constraining link; "infinitely
    // fast" is unphysical, so forbid them instead.
    WRHT_CHECK(std::isfinite(min_share),
               "FlowNetwork: active flow with empty route");

    // Freeze every unfixed flow that crosses a bottleneck link and charge
    // it against its links.  The freeze test reads the shares taken at the
    // start of the round, so charging in the same pass is the same
    // arithmetic, in the same order, as freezing all flows first.
    const double limit = min_share * (1 + 1e-12);
    std::size_t kept = 0;
    for (const std::uint32_t index : unfixed_) {
      Flow& flow = flows_[index];
      const std::span<const LinkId> route = route_of(flow);
      const bool bottlenecked =
          std::any_of(route.begin(), route.end(),
                      [&](LinkId l) { return links_[l].share <= limit; });
      if (!bottlenecked) {
        unfixed_[kept++] = index;
        continue;
      }
      flow.rate = min_share;
      // A zero share (a saturated link) freezes flows without charging.
      if (min_share <= 0.0) continue;
      for (const LinkId l : route) {
        Link& link = links_[l];
        link.residual -= min_share;
        if (link.residual < 0.0) link.residual = 0.0;
        --link.crossing;
      }
    }
    WRHT_CHECK(kept != unfixed_.size(),
               "FlowNetwork: progressive filling stalled with "
                   << unfixed_.size() << " unfixed flows");
    unfixed_.resize(kept);
  }

  // Rates only change here, so sampling here makes the per-link peak exact.
  for (const LinkId l : touched_) {
    links_[l].allocated = 0.0;
    links_[l].crossing = 0;
  }
  for (const FlowId f : live_) {
    const Flow& flow = flow_ref(f);
    if (flow.state != FlowState::kActive) continue;
    for (const LinkId l : route_of(flow)) links_[l].allocated += flow.rate;
  }
  for (const LinkId l : touched_) {
    Link& link = links_[l];
    link.utilization =
        link.allocated / link.spec.capacity.bytes_per_second();
    link.peak_utilization =
        std::max(link.peak_utilization, link.utilization);
  }
}

util::Seconds FlowNetwork::next_event_time() const {
  util::Seconds next{std::numeric_limits<double>::infinity()};
  for (const FlowId f : live_) {
    const Flow& flow = flow_ref(f);
    if (flow.state == FlowState::kWaiting) {
      next = std::min(next, flow.activation);
    } else if (flow.state == FlowState::kActive && flow.rate > 0.0) {
      next = std::min(next, now_ + util::Seconds(flow.remaining / flow.rate));
    }
  }
  return next;
}

void FlowNetwork::advance_to(util::Seconds when) {
  const double dt = (when - now_).value();
  for (const FlowId f : live_) {
    Flow& flow = flow_ref(f);
    if (flow.state != FlowState::kActive) continue;
    const double moved = flow.rate * dt;
    flow.remaining -= moved;
    for (const LinkId link : route_of(flow)) {
      links_[link].carried_bytes += moved;
    }
  }
  now_ = when;
}

void FlowNetwork::settle() {
  bool any_done = false;
  for (const FlowId f : live_) {
    Flow& flow = flow_ref(f);
    if (flow.state == FlowState::kWaiting && flow.activation <= now_) {
      flow.state = FlowState::kActive;
      rates_stale_ = true;
    }
    if (flow.state == FlowState::kActive && flow.remaining <= kEpsilonBytes) {
      flow.state = FlowState::kDone;
      flow.completion = now_;
      flow.rate = 0.0;
      any_done = true;
      rates_stale_ = true;
    }
  }
  if (any_done) {
    live_.erase(std::remove_if(live_.begin(), live_.end(),
                               [&](FlowId f) {
                                 return flow_ref(f).state == FlowState::kDone;
                               }),
                live_.end());
  }
}

util::Seconds FlowNetwork::run() {
  return run_until(util::Seconds(std::numeric_limits<double>::infinity()));
}

util::Seconds FlowNetwork::run_until(util::Seconds horizon) {
  while (!live_.empty()) {
    if (rates_stale_) recompute_rates();
    const util::Seconds when = next_event_time();
    WRHT_CHECK(std::isfinite(when.value()),
               "FlowNetwork: deadlock — " << live_.size()
                                          << " live flows, no events");
    if (when > horizon) break;
    advance_to(when);
    settle();
  }
  if (std::isfinite(horizon.value()) && horizon > now_) {
    // Partial progress up to the horizon (rates are current when flows are
    // live; with none, this only moves the clock), then absorb
    // any flow the rounding of a split advance left epsilon-short.
    advance_to(horizon);
    settle();
  }
  return now_;
}

bool FlowNetwork::completed(FlowId flow) const {
  WRHT_REQUIRE(flow >= base_,
               "FlowNetwork: querying retired flow " << flow);
  return flow_ref(flow).state == FlowState::kDone;
}

util::Seconds FlowNetwork::completion_time(FlowId flow) const {
  WRHT_REQUIRE(completed(flow),
               "FlowNetwork: flow " << flow << " has not completed");
  return flow_ref(flow).completion;
}

util::Bytes FlowNetwork::link_bytes(LinkId link) const {
  return util::Bytes(
      static_cast<std::uint64_t>(links_[link].carried_bytes + 0.5));
}

double FlowNetwork::current_rate(FlowId flow) const {
  WRHT_REQUIRE(flow >= base_,
               "FlowNetwork: querying retired flow " << flow);
  const Flow& f = flow_ref(flow);
  return f.state == FlowState::kActive ? f.rate : 0.0;
}

double FlowNetwork::link_peak_utilization(LinkId link) const {
  return links_[link].peak_utilization;
}

double FlowNetwork::link_utilization(LinkId link) const {
  return links_[link].utilization;
}

FlowNetwork FlowNetwork::clone_live(std::vector<FlowId>& id_map) const {
  // live_ is ascending, so the copy receives the flows in the same (id)
  // order the historical whole-table walk produced — the max-min arithmetic
  // downstream is bit-identical, and the solved rates stay valid.
  FlowNetwork copy;
  copy.links_ = links_;
  copy.now_ = now_;
  copy.rates_stale_ = rates_stale_;
  copy.touched_ = touched_;
  id_map.assign(flows_.size(), kNoFlow);
  copy.flows_.reserve(live_.size());
  copy.live_.reserve(live_.size());
  for (const FlowId f : live_) {
    const auto id = static_cast<FlowId>(copy.flows_.size());
    id_map[f - base_] = id;
    copy.live_.push_back(id);
    Flow flow = flow_ref(f);
    const std::span<const LinkId> route = route_of(flow);
    flow.route_offset = static_cast<std::uint32_t>(copy.route_pool_.size());
    copy.route_pool_.insert(copy.route_pool_.end(), route.begin(),
                            route.end());
    copy.flows_.push_back(flow);
  }
  return copy;
}

void FlowNetwork::retire_done_below(FlowId floor) {
  const FlowId oldest_live =
      live_.empty() ? base_ + static_cast<FlowId>(flows_.size())
                    : live_.front();
  if (floor > oldest_live) floor = oldest_live;
  if (floor <= base_) return;
  const std::size_t drop = floor - base_;
  // Erasing the vector front moves every survivor, so wait until the
  // retired prefix is worth the move; memory stays bounded by the in-flight
  // window plus this slack.
  if (drop < 64 && drop * 2 < flows_.size()) return;
  // Routes sit in the pool in flow order, so the retired flows' routes are
  // its prefix; survivors shift down by that prefix.
  const std::uint32_t pool_drop =
      drop < flows_.size() ? flows_[drop].route_offset
                           : static_cast<std::uint32_t>(route_pool_.size());
  flows_.erase(flows_.begin(),
               flows_.begin() + static_cast<std::ptrdiff_t>(drop));
  route_pool_.erase(route_pool_.begin(),
                    route_pool_.begin() +
                        static_cast<std::ptrdiff_t>(pool_drop));
  for (Flow& flow : flows_) flow.route_offset -= pool_drop;
  base_ = floor;
}

void FlowNetwork::reset() {
  flows_.clear();
  live_.clear();
  route_pool_.clear();
  touched_.clear();
  rates_stale_ = false;
  base_ = 0;
  now_ = util::Seconds(0.0);
  for (Link& link : links_) {
    link.carried_bytes = 0.0;
    link.peak_utilization = 0.0;
    link.utilization = 0.0;
  }
}

}  // namespace wrht::elec
