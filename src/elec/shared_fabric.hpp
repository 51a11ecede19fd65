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
// A router that probes a step (predict_step_completion) and then places it
// (begin_step) would pay for the same forward run twice: the probe clones
// the fabric, advances the clone to `now`, injects the step and runs it to
// drain; begin_step advances the real fabric to `now`, injects the step,
// clones and runs to drain.  Both orders apply the same arithmetic to the
// same live flows in the same order, so their completion times are bitwise
// equal, and begin_step adopts the probe's forward run instead of running
// its own when the probe is FRESH: no begin_step or close_session since it,
// the same `now`, and the identical ordered (src, dst, bytes) flow list.
// Anything else falls back to a forward run of the real fabric.
// forward_runs() counts the runs actually made.
//
// Correctness is anchored by a replay oracle: the timer logs every advance
// point and every injected flow, and re-runs the identical operation
// sequence on a network that starts empty — the per-step completion times
// must reproduce the incremental timer's exactly (the same arithmetic in the
// same order, so equality is bitwise, not approximate).  The log is audited
// in epochs.  An epoch ends at each logged advance after which the shared
// network holds no waiting or active flow: a drained network keeps nothing
// a later flow's timing reads except its clock, so the next epoch replays
// on a reset network advanced to its first op, exactly as the whole-horizon
// replay would have continued.  At that point the epoch is replayed, every
// step end compared bitwise, the verdict added to running totals, and the
// epoch's log dropped.  The log held at once is therefore one epoch long,
// not the whole run; a fabric that is never idle degrades to one epoch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "coll/schedule.hpp"
#include "elec/schedule_runner.hpp"
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

  /// `cluster` must outlive the timer.  `replay_audit` keeps the replay log
  /// (every advance + flow injection) that the epoch audit and
  /// verify_replay() re-prove the incremental timing against.  The log holds
  /// one idle-to-idle epoch at a time (peak_held_steps()), not the whole
  /// run.  With the audit off nothing is logged, and verify_replay() has
  /// nothing to check and returns 0.  Timing is bit-identical either way.
  explicit SharedFabricTimer(const ElectricalCluster& cluster,
                             bool replay_audit = true);

  /// Register the timer's metrics with `registry`: steps-timed and
  /// retiming counters, the replay audit's closed epochs and peak held log
  /// ("fabric.replay_epochs", "fabric.replay_peak_held_steps"), plus the
  /// "electrical.uplink_utilization" sampled gauge (utilization of the
  /// currently-hottest fabric link, refreshed on every injection/close).
  /// The registry must outlive the timer.
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
  /// Adopts the last probe's forward run when that probe is fresh for
  /// exactly this request (see the file comment); the result is bitwise
  /// the same either way.
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
  /// clock before the fabric's).  The forward run is remembered so that a
  /// begin_step of the same flows at the same instant, with the fabric
  /// untouched in between, can adopt it; a later probe replaces it.
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

  /// Forward runs to drain made so far: one per probe of a step with flows,
  /// one per begin_step with flows that could not adopt a fresh probe.  A
  /// deterministic work counter.
  [[nodiscard]] std::uint64_t forward_runs() const { return forward_runs_; }

  /// Peak utilization (allocated rate / capacity, in [0,1]) per link of the
  /// shared network since construction.  Indexed by the cluster's link ids.
  [[nodiscard]] std::vector<double> link_peak_utilization() const;

  /// Steps logged so far (finalized or in flight), closed epochs included.
  [[nodiscard]] std::uint64_t logged_steps() const {
    return dropped_steps_ + steps_.size();
  }

  /// Steps the audit re-proves: every step of a closed epoch, plus the
  /// open tail that verify_replay() replays.  Equals logged_steps() unless
  /// the audit skipped a step.
  [[nodiscard]] std::uint64_t checked_steps() const {
    return closed_checked_ + steps_.size();
  }

  /// Idle-to-idle epochs the audit has replayed and dropped from the log
  /// (epochs holding at least one step).  A deterministic work counter.
  [[nodiscard]] std::uint64_t epochs_closed() const { return epochs_closed_; }

  /// Most steps the replay log has held at once: the longest epoch so far.
  /// A deterministic work counter.
  [[nodiscard]] std::uint64_t peak_held_steps() const {
    return peak_held_steps_;
  }

  /// The oracle's verdict: the closed epochs' mismatches plus a replay of
  /// the open tail on a fresh FlowNetwork, comparing each finalized step's
  /// completion time with the incremental result.  Returns the number of
  /// steps that disagree (0 on a correct timer); steps never finalized
  /// (session left open) also count, whichever epoch they closed in.
  [[nodiscard]] std::uint64_t verify_replay() const;

 private:
  struct LoggedStep {
    util::Seconds start{0.0};
    /// Authoritative completion, read back from the shared network once the
    /// step's flows have drained (predictions may sit an ulp away).
    util::Seconds end{0.0};
    bool finalized = false;
    /// The step's flows are flows_[first_flow, first_flow + num_flows).
    std::uint32_t first_flow = 0;
    std::uint32_t num_flows = 0;
  };
  /// One advance of the shared network, optionally followed by a step's
  /// flow injections.  The replay oracle re-runs exactly this sequence, so
  /// every advance — even a flow-less close_session — is recorded.
  struct LoggedOp {
    util::Seconds time{0.0};
    std::ptrdiff_t step = -1;  // index into steps_, -1 = pure advance
  };
  /// A replay's verdict on the logged epoch.
  struct Verdict {
    std::uint64_t mismatches = 0;
    std::uint64_t checked = 0;
  };
  struct Session {
    bool open = false;
    /// FlowNetwork ids of the current step's flows, ascending.
    std::vector<FlowId> inflight;
    /// Run-wide ordinal of the current step in the log (valid iff audited):
    /// steps_[current_step - dropped_steps_] while its epoch is open.
    std::uint64_t current_step = 0;
    bool has_step = false;
    /// Start/ordinal of the in-flight step, kept on the session itself so
    /// reprediction never needs the (optional) replay log.
    util::Seconds step_start{0.0};
    std::uint64_t step_number = 0;
    util::Seconds predicted_end{0.0};
  };

  /// The session's in-flight step's completion on the shared network: every
  /// flow must have completed (aborts otherwise — a step boundary fired
  /// before its flows drained, which the retiming contract forbids).
  [[nodiscard]] util::Seconds drained_end(SessionId session_id) const;
  /// Fold the session's in-flight step into the log, or into the closed
  /// epochs' totals when its epoch closed while the step sat drained.
  void finalize_step(SessionId session_id);
  /// Log an advance of the shared network to `time`; close the epoch if the
  /// network is idle after it.
  void log_advance(util::Seconds time);
  /// Replay the open epoch, add its verdict to the running totals, and drop
  /// its log.  Only at an idle advance: every logged step has drained.
  void close_epoch();
  /// Replay the open epoch's log on `replay` (empty, clock at 0) and compare
  /// every step's completion bitwise with the logged one.
  [[nodiscard]] Verdict replay_log(FlowNetwork& replay) const;
  /// The last probe's forward run: the clone run to drain, and the map from
  /// a real flow id (minus the id floor) to its id in that clone — the
  /// flows live at the probe, then the probed step's flows in injection
  /// order, which are exactly the ids a begin_step of them would get.
  struct Probe {
    bool fresh = false;
    util::Seconds now{0.0};
    std::vector<StepFlow> flows;
    FlowNetwork forward;
    std::vector<FlowId> id_map;
  };

  /// Recompute predicted completions for every in-flight step after an
  /// injection, from the fresh probe's forward run when `adopt` is set and
  /// from a new forward run of the real fabric otherwise; queue a Retiming
  /// for each session other than `started` whose prediction moved.
  void repredict(SessionId started, bool adopt);

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
  /// The open epoch's log: its steps, their flows in injection order (host
  /// pairs, not route copies: the replay re-derives each route from the
  /// cluster's route table, the same table the live injection read), and
  /// its advances.
  std::vector<LoggedStep> steps_;
  std::vector<StepFlow> flows_;
  std::vector<LoggedOp> ops_;
  /// The network each closed epoch replays on, built by the first close and
  /// reset before each later one.
  FlowNetwork replay_;
  /// Running audit totals over the closed epochs.
  std::uint64_t dropped_steps_ = 0;
  std::uint64_t closed_checked_ = 0;
  std::uint64_t closed_mismatches_ = 0;
  /// Steps checked at an epoch boundary while drained but not yet finalized
  /// (their session's completion had not fired); each counts as a mismatch
  /// until finalize_step folds it.
  std::uint64_t drained_unfinalized_ = 0;
  std::uint64_t epochs_closed_ = 0;
  std::uint64_t peak_held_steps_ = 0;
  std::vector<Retiming> retimings_;
  /// Mutable: the const probe remembers its forward run for begin_step.
  mutable Probe probe_;
  mutable std::uint64_t forward_runs_ = 0;
  /// The flows of the step begin_step is injecting (reused storage).
  std::vector<StepFlow> pending_;
  /// Metric handles; nullptr (zero-overhead emission) without a registry.
  obs::Counter* steps_timed_ = nullptr;
  obs::Counter* retimings_emitted_ = nullptr;
  obs::Counter* replay_epochs_ = nullptr;
  obs::Gauge* replay_peak_held_ = nullptr;
  obs::Gauge* uplink_utilization_ = nullptr;
};

}  // namespace wrht::elec
