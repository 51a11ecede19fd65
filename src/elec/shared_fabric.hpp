// Multi-tenant flow timing on ONE shared FlowNetwork — the electrical
// analogue of the shared optical SpectrumMap.
//
// The star fallback gives every execution exclusive host links, so each
// step runs on a private quiet network and tenants never contend — which
// hides the congestion that motivates the optical ring in the first place.
// On an oversubscribed two-level tree the ToR uplinks are genuinely shared:
// a step's completion time depends on what every other tenant is sending
// through the same uplinks at the same instant.
//
// SharedFabricTimer therefore keeps ONE long-lived FlowNetwork for the
// whole fabric and times the in-flight steps of ALL concurrent executions
// together under max-min fair sharing:
//
//  * begin_step(session, ...) advances the shared network to `now`, injects
//    the step's flows next to whatever other tenants have in flight, and
//    returns the step's predicted completion — exact for the fluid model
//    unless a LATER arrival changes the sharing.
//  * When an arrival does change the sharing, every other in-flight step's
//    completion moves; the corrections surface through take_retimings() so
//    the caller can re-schedule its step-completion events.  Departures
//    need no correction: the forward prediction already simulates every
//    current flow to completion, including their rate changes as peers
//    drain.
//
// Correctness is anchored by a whole-horizon replay oracle: the timer logs
// every advance point and every injected flow, and verify_replay() re-runs
// the identical operation sequence on a FRESH FlowNetwork — the per-step
// completion times must reproduce the incremental timer's exactly (the same
// arithmetic in the same order, so equality is bitwise, not approximate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "coll/schedule.hpp"
#include "elec/topology.hpp"
#include "util/units.hpp"

namespace wrht::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace wrht::obs

namespace wrht::elec {

class SharedFabricTimer {
 public:
  using SessionId = std::uint32_t;

  /// `cluster` must outlive the timer.  `replay_audit` keeps the
  /// whole-horizon replay log (every advance + flow injection) that
  /// verify_replay() re-proves the incremental timing against; the log is
  /// O(total steps), so streaming front ends serving millions of jobs may
  /// turn it off — verify_replay() then has nothing to check and returns 0.
  /// Timing is bit-identical either way.
  explicit SharedFabricTimer(const ElectricalCluster& cluster,
                             bool replay_audit = true);

  /// Register the timer's metrics with `registry`: steps-timed and
  /// retiming counters, plus the "electrical.uplink_utilization" sampled
  /// gauge (utilization of the currently-hottest fabric link, refreshed on
  /// every injection/close).  The registry must outlive the timer.
  void attach_metrics(obs::MetricsRegistry& registry);

  /// Register a tenant execution.  Sessions are cheap; one per execution.
  [[nodiscard]] SessionId open_session();

  /// Inject the flows of `schedule` step `step` (payload split exactly as
  /// the quiet-network runner splits it) into the shared fabric at `now`,
  /// and return the step's predicted completion time under max-min fair
  /// sharing with every other in-flight step.  The session's previous step
  /// must have completed by `now`.  Returns nullopt on a bad request:
  /// unknown/closed session, out-of-range step, a schedule needing more
  /// hosts than the cluster has, a clock running backwards, or a previous
  /// step still in flight.  A rejected request injects no flows; the
  /// still-in-flight case has already advanced the shared clock to `now`
  /// and logged that advance (the replay oracle must split its advances
  /// exactly where the live network did, failed requests included).
  [[nodiscard]] std::optional<util::Seconds> begin_step(
      SessionId session, const coll::Schedule& schedule, std::size_t step,
      util::Bytes payload, util::Seconds now);

  /// Close a session at `now` (its last step must have completed by then).
  void close_session(SessionId session, util::Seconds now);

  /// Congestion-aware what-if probe: the completion time `schedule` step
  /// `step` WOULD have if its flows joined the shared fabric at `now`, next
  /// to everything currently in flight.  Computed on a live-flows clone of
  /// the shared network, so the answer is the fluid model's own arithmetic
  /// against the real residual uplink bandwidth — a pure probe that injects
  /// nothing, logs nothing, and retimes nobody.  Same rejection cases as
  /// begin_step's schedule checks (out-of-range step, too many hosts, a
  /// clock before the fabric's).
  [[nodiscard]] std::optional<util::Seconds> predict_step_completion(
      const coll::Schedule& schedule, std::size_t step, util::Bytes payload,
      util::Seconds now) const;

  /// Predicted completion times of every in-flight step, one entry per open
  /// session currently running one (order follows the ascending session-id
  /// working set).  These are the instants the fabric's current contention
  /// is predicted to DRAIN at — the congestion-aware router decays its
  /// clone-probe stretch by them, so a fabric full of nearly-done tenants
  /// stops repelling arrivals it could actually serve.
  [[nodiscard]] std::vector<util::Seconds> inflight_predicted_ends() const;

  /// A step whose predicted completion moved because a later arrival
  /// changed the max-min sharing.  Entries are in detection order; for a
  /// session appearing twice, the later entry supersedes.
  struct Retiming {
    SessionId session = 0;
    util::Seconds end{0.0};
  };
  [[nodiscard]] std::vector<Retiming> take_retimings();

  [[nodiscard]] std::size_t active_sessions() const;

  /// Peak utilization (allocated rate / capacity, in [0,1]) per link of the
  /// shared network since construction.  Indexed by the cluster's link ids.
  [[nodiscard]] std::vector<double> link_peak_utilization() const;

  /// Steps logged so far (finalized or in flight).
  [[nodiscard]] std::uint64_t logged_steps() const {
    return static_cast<std::uint64_t>(steps_.size());
  }

  /// The whole-horizon oracle: replay every logged advance and flow
  /// injection, in order, into a fresh FlowNetwork and compare each
  /// finalized step's completion time with the incremental result.
  /// Returns the number of steps that disagree (0 on a correct timer);
  /// steps never finalized (session left open) also count.
  [[nodiscard]] std::uint64_t verify_replay() const;

 private:
  /// A logged flow keeps its host pair, not a route copy: the replay
  /// re-derives the route from the cluster's route table, the same table
  /// the live injection read it from.
  struct LoggedFlow {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    util::Bytes bytes;
  };
  struct LoggedStep {
    SessionId session = 0;
    std::uint64_t step = 0;
    util::Seconds start{0.0};
    /// Authoritative completion, read back from the shared network once the
    /// step's flows have drained (predictions may sit an ulp away).
    util::Seconds end{0.0};
    bool finalized = false;
    std::vector<LoggedFlow> flows;
  };
  /// One advance of the shared network, optionally followed by a step's
  /// flow injections.  The replay oracle re-runs exactly this sequence, so
  /// every advance — even a flow-less close_session — is recorded.
  struct LoggedOp {
    util::Seconds time{0.0};
    std::ptrdiff_t step = -1;  // index into steps_, -1 = pure advance
  };
  struct Session {
    bool open = false;
    /// FlowNetwork ids of the current step's flows, ascending.
    std::vector<FlowId> inflight;
    std::size_t current_step = 0;  // index into steps_ (valid iff audited)
    bool has_step = false;
    /// Start/ordinal of the in-flight step, kept on the session itself so
    /// reprediction never needs the (optional) replay log.
    util::Seconds step_start{0.0};
    std::uint64_t step_number = 0;
    util::Seconds predicted_end{0.0};
  };

  /// Fold the session's in-flight step into the log: every flow must have
  /// completed on the shared network (aborts otherwise — a step boundary
  /// fired before its flows drained, which the retiming contract forbids).
  void finalize_step(SessionId session_id);
  /// Recompute predicted completions for every in-flight step after an
  /// injection; queue a Retiming for each session other than `started`
  /// whose prediction moved.
  void repredict(SessionId started);

  /// Refresh the uplink-utilization gauge (no-op without a registry).
  void publish_utilization();

  /// Let the network retire the storage of flows below every open
  /// session's oldest in-flight flow — nobody will query them again.
  void retire_drained();

  const ElectricalCluster* cluster_;
  FlowNetwork network_;
  bool audit_;
  std::vector<Session> sessions_;
  /// Ids of open sessions, ascending — the working set repredict() and the
  /// retirement floor walk instead of every session ever opened.
  std::vector<SessionId> open_sessions_;
  std::vector<LoggedStep> steps_;
  std::vector<LoggedOp> ops_;
  std::vector<Retiming> retimings_;
  /// Metric handles; nullptr (zero-overhead emission) without a registry.
  obs::Counter* steps_timed_ = nullptr;
  obs::Counter* retimings_emitted_ = nullptr;
  obs::Gauge* uplink_utilization_ = nullptr;
};

}  // namespace wrht::elec
