// Flow-level network simulator with max-min fair bandwidth sharing — the
// substitute for SimGrid's fluid TCP model (DESIGN.md §3).
//
// A flow traverses a fixed route of links.  At any instant, active flows
// receive the max-min fair allocation computed by progressive filling: the
// most contended link determines the fair share of the flows crossing it,
// those flows are frozen, residual capacity propagates, repeat.  Rates are
// recomputed whenever a flow activates or completes, so completion times are
// exact for the fluid model (no time-stepping error).
//
// Latency is modelled as an activation delay: a flow placed at time t with
// route latency L starts consuming bandwidth at t + L.
//
// The filling kernel is the textbook one made cheap without changing a bit
// of its arithmetic:
//
//  * Touched links only.  Each round scans the links active flows cross,
//    not every link of the fabric.  The bottleneck is the exact minimum of
//    residual/crossing, which does not depend on scan order; flows are
//    still frozen and charged in live order with the same 1e-12 tolerance
//    and clamp.  Utilization is written for the links touched now, and a
//    link touched by the previous solve but not this one is reset to 0.
//  * Solve only on an active-set change.  Rates are a pure function of the
//    active flows in live order, and only settle() changes that set (an
//    activation or a completion), so the solve is skipped otherwise;
//    clone_live copies carry the solved state.
//  * No per-solve or per-flow allocation.  Solver scratch lives in the link
//    records and reused member lists; routes live in one flat pool.
//
// The solve is deliberately NOT component-incremental (re-solving only the
// bottleneck-coupled component an arriving or departing flow touches): the
// 1e-12 freeze tolerance couples components through the global round order
// — a link within 1e-12 of another component's minimum is frozen at that
// minimum — so a per-component solve would not be bit-identical, and the
// shared fabric's replay audit demands bitwise step times.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace wrht::elec {

using LinkId = std::uint32_t;
using FlowId = std::uint32_t;

/// "No such flow" marker (clone_live id maps, absent lookups).
inline constexpr FlowId kNoFlow = 0xFFFFFFFFu;

struct LinkSpec {
  util::Bandwidth capacity = util::gbps(10.0);
  util::Seconds latency = util::microseconds(25.0);
};

class FlowNetwork {
 public:
  FlowNetwork() = default;
  /// A network with one link per spec; link ids follow the span's order.
  explicit FlowNetwork(std::span<const LinkSpec> links);

  LinkId add_link(LinkSpec spec);
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  [[nodiscard]] const LinkSpec& link_spec(LinkId link) const {
    return links_[link].spec;
  }

  /// Place a flow of `bytes` over `route` starting at the current time.
  /// The route is copied into the network's flat route pool.
  FlowId add_flow(std::span<const LinkId> route, util::Bytes bytes);
  FlowId add_flow(std::initializer_list<LinkId> route, util::Bytes bytes) {
    return add_flow(std::span<const LinkId>(route.begin(), route.size()),
                    bytes);
  }

  /// Advance the fluid simulation until every flow has completed.
  /// Returns the simulated time reached.
  util::Seconds run();

  /// Advance the fluid simulation to `horizon` (>= now()), processing every
  /// activation and completion on the way; flows still in flight stay live.
  /// The clock lands exactly on the horizon even when the network drains
  /// earlier, so flows added afterwards activate relative to it.  This is
  /// the seam the shared-fabric timer drives: one long-lived network,
  /// advanced to each tenant's step boundary before new flows join.
  util::Seconds run_until(util::Seconds horizon);

  [[nodiscard]] util::Seconds now() const { return now_; }
  /// True when no flow is waiting or active: the network holds no state a
  /// later flow's timing reads beyond the clock.
  [[nodiscard]] bool idle() const { return live_.empty(); }
  [[nodiscard]] bool completed(FlowId flow) const;
  [[nodiscard]] util::Seconds completion_time(FlowId flow) const;
  /// Cumulative bytes carried by a link since construction/reset.
  [[nodiscard]] util::Bytes link_bytes(LinkId link) const;

  /// Current max-min rate of an active flow (0 while waiting/finished).
  [[nodiscard]] double current_rate(FlowId flow) const;

  /// Highest instantaneous utilization (allocated rate / capacity) a link
  /// has seen since construction/reset, in [0, 1].  Sampled at every rate
  /// recomputation — exact for the fluid model, whose rates only change at
  /// those instants.
  [[nodiscard]] double link_peak_utilization(LinkId link) const;

  /// CURRENT utilization of a link as of the last rate recomputation, in
  /// [0, 1] — the live-congestion signal behind the observability layer's
  /// uplink-utilization gauge.
  [[nodiscard]] double link_utilization(LinkId link) const;

  /// A copy of this network holding only the flows still in flight.  The
  /// copy is the cheap substrate for what-if forward runs (run the copy to
  /// completion, read predicted completion times) on long-lived networks
  /// whose completed-flow history keeps growing.  Fills `id_map` with one
  /// entry per UNRETIRED flow, indexed by (flow - id_floor()): its id in
  /// the copy, or kNoFlow if done.
  [[nodiscard]] FlowNetwork clone_live(std::vector<FlowId>& id_map) const;

  /// Flows with ids below this have been retired (storage dropped); they
  /// were all complete and may no longer be queried.
  [[nodiscard]] FlowId id_floor() const { return base_; }

  /// Drop the storage of completed flows with id < `floor` once the caller
  /// guarantees it will never query them again.  Clamped to the oldest
  /// still-live flow, so it can never retire an in-flight one; amortized so
  /// small prefixes wait until the front-erase pays for itself.  This is
  /// what keeps a month-long serving network's flow table sized to its
  /// in-flight window instead of its whole history.
  void retire_done_below(FlowId floor);

  /// Drop all flows (completed or not) and zero the clock; links persist.
  void reset();

  /// Max-min solves performed since construction (not cleared by reset; a
  /// clone_live copy counts its own from 0).  A deterministic work counter:
  /// a run_until that sees no activation or completion adds nothing.
  [[nodiscard]] std::uint64_t rate_solves() const { return rate_solves_; }

 private:
  enum class FlowState : std::uint8_t { kWaiting, kActive, kDone };

  struct Link {
    LinkSpec spec;
    double carried_bytes = 0.0;
    double peak_utilization = 0.0;
    /// Allocated rate / capacity as of the last recompute_rates().
    double utilization = 0.0;
    // Progressive-filling scratch, meaningful only inside recompute_rates.
    // `crossing` is 0 between solves, which is what marks a link untouched.
    double residual = 0.0;
    double share = 0.0;
    double allocated = 0.0;
    std::uint32_t crossing = 0;
  };
  struct Flow {
    /// The route is route_pool_[route_offset, route_offset + route_len).
    std::uint32_t route_offset = 0;
    std::uint32_t route_len = 0;
    double remaining = 0.0;  // bytes
    double rate = 0.0;       // bytes/second while active
    util::Seconds activation{0.0};
    util::Seconds completion{0.0};
    FlowState state = FlowState::kWaiting;
  };

  void recompute_rates();
  [[nodiscard]] util::Seconds next_event_time() const;
  void advance_to(util::Seconds when);
  void settle();

  [[nodiscard]] Flow& flow_ref(FlowId id) { return flows_[id - base_]; }
  [[nodiscard]] const Flow& flow_ref(FlowId id) const {
    return flows_[id - base_];
  }
  [[nodiscard]] std::span<const LinkId> route_of(const Flow& flow) const {
    return {route_pool_.data() + flow.route_offset, flow.route_len};
  }

  std::vector<Link> links_;
  /// Storage for flows with id >= base_ (flow `id` lives at
  /// flows_[id - base_]); ids below base_ were retired.
  std::vector<Flow> flows_;
  FlowId base_ = 0;
  /// Ids of flows not yet done, ascending (appended in id order, erased in
  /// place).  Keeps the event loop linear in the number of *live* flows,
  /// not all flows ever added (the Figure-2 harness pushes millions of
  /// flows through one network).
  std::vector<FlowId> live_;
  /// Routes of the flows in flows_, concatenated in flow order.
  std::vector<LinkId> route_pool_;
  util::Seconds now_{0.0};

  /// True when the active set changed since the last solve.  A fresh or
  /// reset network holds the solved state of the empty set (zero rates and
  /// utilizations), so it starts clean.
  bool rates_stale_ = false;
  std::uint64_t rate_solves_ = 0;
  /// Links the last solve touched: the only links whose utilization may be
  /// non-zero, so the next solve zeroes them before writing its own.
  std::vector<LinkId> touched_;
  /// Solver scratch: flows_ indices of the still-unfixed active flows.
  std::vector<std::uint32_t> unfixed_;
};

}  // namespace wrht::elec
