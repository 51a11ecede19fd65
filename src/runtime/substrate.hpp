// Pluggable execution substrates for the multi-tenant runtime.
//
// The runtime holds the serving POLICY: admission, fairness, priorities and
// aging, batching, the shared clock, oracle validation, and the ledgers.
// Each substrate holds the MECHANISM of one fabric: claiming resources for
// a participant set, building and timing its schedule, renegotiating it at
// step boundaries, and everything the fabric knows about its own health.
// ExecutionSubstrate is that seam, and the runtime drives every substrate
// through the same admit -> preempt -> reconcile cycle:
//
//  * capacity: which queue entries contend for this fabric (contends), which
//    pins it accepts, and — for a waiter that cannot fit — which running
//    executions to ask to surrender at their next step boundary
//    (preemption_victims).  The runtime picks the waiter and says who it
//    outranks; the substrate knows what a surrender frees.
//  * fault health: down refcounts and quarantined units, updated from each
//    FaultSpec and its repair (fail / repair).  A freed unit that is down is
//    quarantined as soon as it is released, so dead capacity is never
//    re-granted.  disrupts() says which running plans a fault touches;
//    remedy() says what the next step boundary needs (nothing, evict,
//    shrink to the healthy prefix, restart, migrate, or suspend), and
//    down_among() which participants the fabric has lost.
//
// Two implementations exist:
//
//  * the OPTICAL substrate — the paper's WDM ring.  Grants are contiguous
//    wavelength bands carved out of the shared spectrum by a
//    SpectrumArbiter; schedules are Wrht builds sized to the band; per-step
//    timing claims (span, wavelength, direction) cells on the shared
//    SpectrumMap and pays the paper's per-step optical overheads.  Supports
//    step-boundary renegotiation (preemption and elastic resize) via
//    core::rebuild_wrht_remainder.  Transceiver and node faults take ring
//    positions out of service; wavelength faults degrade spectrum.
//
//  * the ELECTRICAL substrate — the alpha-beta/flow baseline fabric from
//    src/elec.  Grants are exclusive claims on the participants' hosts,
//    either on a star cluster (every flow crosses only its endpoints'
//    access links, so host exclusivity makes the per-execution
//    quiet-network flow timing exact) or on an oversubscribed two-level
//    tree whose ToR uplinks all tenants share.  Schedules are the classic
//    electrical collectives (chunked ring / recursive doubling, picked by
//    the alpha-beta cost model); per-step timing is the BSP step makespan
//    under max-min fair sharing, exactly elec::run_on_electrical's model,
//    produced incrementally so electrical steps interleave with optical
//    tenants on one clock.  Node and ToR faults take hosts down; hosts are
//    fungible, so no participant is ever lost, and a ToR loss asks for
//    migration to another fabric.
//
// Both substrates preempt at step boundaries and fuse small jobs.  Only an
// optical plan holds a wavelength band, so only it can grow or shrink, and
// only its band width bounds the min_wavelengths of a fused peer; the
// runtime reads both from the plan's band().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coll/schedule.hpp"
#include "elec/topology.hpp"
#include "optical/assign.hpp"
#include "optical/params.hpp"
#include "runtime/admission.hpp"
#include "runtime/faults.hpp"
#include "runtime/job.hpp"
#include "runtime/planner.hpp"
#include "sim/simulator.hpp"
#include "topo/ring.hpp"

namespace wrht::obs {
class MetricsRegistry;
}  // namespace wrht::obs

namespace wrht::runtime {

/// Per-execution state owned by a substrate: the schedule still ahead and
/// the resources backing it.  The runtime folds executed steps into its own
/// composite-oracle checkpoint; the plan always describes only the work
/// remaining (the whole job at admission, the rebuilt remainder after a
/// renegotiation).
class SubstrateExecution {
 public:
  virtual ~SubstrateExecution() = default;

  /// Schedule for the steps still ahead.
  [[nodiscard]] virtual const coll::Schedule& schedule() const = 0;
  [[nodiscard]] std::size_t num_steps() const {
    return schedule().num_steps();
  }
  /// Spectrum band backing this plan.  Off-spectrum substrates return the
  /// invalid {0, 0} band; JobRecord keeps it as "no band held".  Only a
  /// plan holding a valid band can grow or shrink.
  [[nodiscard]] virtual WavelengthBand band() const = 0;
  /// Physical hosts backing this plan, in participant-rank order (hosts[i]
  /// carries participants[i]'s data).  Empty for substrates whose grants
  /// are not host-denominated (optical bands).  After a remapped resume
  /// this differs from the participant list.
  [[nodiscard]] virtual std::vector<topo::NodeId> hosts() const { return {}; }
};

/// Timing of one executed step on the shared clock.
struct StepTiming {
  /// Absolute completion time of the step, including the substrate's
  /// inter-step barrier.  On a shared fabric this is the prediction under
  /// the sharing in force right now; later arrivals may move it (surfaced
  /// through take_retimings).
  util::Seconds end{0.0};
  std::uint64_t retunes = 0;
  /// (arc, wavelength) cells claimed on the shared spectrum map (0 for
  /// substrates without shared-medium reservations).
  std::uint64_t reservations = 0;
  /// Duration this step would take on a quiet network (no other tenants) —
  /// the denominator of the per-job contention slowdown.  Zero when the
  /// substrate has no meaningful quiet baseline (optical bands are private
  /// by construction).
  util::Seconds quiet{0.0};
};

/// A correction to an earlier StepTiming: `exec`'s current step now ends at
/// `end` because another tenant's flows changed the fabric sharing.
struct StepRetiming {
  SubstrateExecution* exec = nullptr;
  util::Seconds end{0.0};
};

/// One typed entry point for every way an execution's contract can change
/// at a step boundary.  Historically resume / grow / shrink were separate
/// virtuals on ExecutionSubstrate; faults (node loss, wavelength
/// degradation, cross-substrate migration) would each have needed yet
/// another copy of the suspend-rebuild-resume dance, so the verbs collapsed
/// into one request type and kEvict / kRestart became new kinds instead of
/// new methods.
struct RenegotiationRequest {
  enum class Kind : std::uint8_t {
    /// Re-place a suspended execution: allocate a fresh grant of at most
    /// `width` units (refuse below `min_grant`) and rebuild the remainder
    /// after `steps_done` executed steps.  `nodes` may name failed
    /// participants to drop from the remainder's delivery set.
    kResume,
    /// Grow the current grant in place toward `width` when the rebuilt
    /// remainder gets strictly shorter; roll the grant back otherwise.
    kGrow,
    /// Shrink the current grant in place to exactly `width` units.
    kShrink,
    /// Rebuild the remainder after `steps_done` with the failed `nodes`
    /// dropped from its delivery set, on the SAME grant (survivor rebuild).
    /// Refused when a failed node still carries state the remainder needs —
    /// the caller must then fall back to kRestart among the survivors.
    kEvict,
    /// Brand-new plan for `nodes` / `payload` on a fresh grant of at most
    /// `width` units (refuse below `min_grant`), discarding any executed
    /// prefix.  Reads nothing from `current` — it may be null, or a plan
    /// owned by a different substrate (cross-substrate migration).
    kRestart,
  };

  Kind kind = Kind::kResume;
  /// Steps of the current plan already executed (the prefix the runtime
  /// folds into its composite-oracle checkpoint).
  std::size_t steps_done = 0;
  /// Grant-width operand; meaning depends on kind (desired ceiling for
  /// kResume/kRestart, growth ceiling for kGrow, exact keep for kShrink;
  /// ignored by kEvict, which keeps the current grant).
  std::uint32_t width = 0;
  /// Floor below which kResume / kRestart refuse rather than thrash.
  std::uint32_t min_grant = 1;
  /// kResume / kEvict: failed nodes to drop from the remainder's delivery
  /// set.  kRestart: the (surviving) participant set of the fresh plan.
  std::vector<topo::NodeId> nodes;
  /// kRestart only: payload of the fresh plan.
  util::Bytes payload{0};

  [[nodiscard]] static RenegotiationRequest resume(
      std::size_t steps_done, std::uint32_t desired, std::uint32_t min_grant,
      std::vector<topo::NodeId> evict = {}) {
    return {Kind::kResume, steps_done, desired, min_grant, std::move(evict),
            util::Bytes(0)};
  }
  [[nodiscard]] static RenegotiationRequest grow(std::size_t steps_done,
                                                std::uint32_t max_grant) {
    return {Kind::kGrow, steps_done, max_grant, 1, {}, util::Bytes(0)};
  }
  [[nodiscard]] static RenegotiationRequest shrink(std::size_t steps_done,
                                                  std::uint32_t keep) {
    return {Kind::kShrink, steps_done, keep, 1, {}, util::Bytes(0)};
  }
  [[nodiscard]] static RenegotiationRequest evict(
      std::size_t steps_done, std::vector<topo::NodeId> failed) {
    return {Kind::kEvict, steps_done, 0, 1, std::move(failed),
            util::Bytes(0)};
  }
  [[nodiscard]] static RenegotiationRequest restart(
      std::vector<topo::NodeId> participants, util::Bytes payload,
      std::uint32_t desired, std::uint32_t min_grant) {
    return {Kind::kRestart, 0,      desired, min_grant, std::move(participants),
            payload};
  }
};

/// A running execution offered to a substrate as a preemption victim.  The
/// runtime fills in the policy (priority, who the waiter outranks); the
/// substrate decides what surrendering would free.
struct PreemptionCandidate {
  const SubstrateExecution* plan = nullptr;
  /// Raw urgency of the execution (the max over its fused jobs).
  std::int32_t priority = 0;
  /// Oldest job it carries, the final tie-break.
  JobId lead = kNoJob;
  /// Already asked to surrender its grant at the next step boundary.
  bool surrendering = false;
  /// Strictly below the waiter's priority, so it may be asked to surrender.
  bool outranked = false;
};

/// The most urgent waiter for a substrate's capacity: a queued job or a
/// suspended execution awaiting resume.
struct PreemptionWaiter {
  bool queued = true;
  /// The waiter's participants (a queued job needs exactly these; a
  /// suspended execution resumes wherever its substrate lets it).
  const std::vector<topo::NodeId>* participants = nullptr;
  /// The waiter's minimum grant in this substrate's units.
  std::uint32_t min_grant = 1;
};

/// What the next step boundary must do for an execution a fault touched.
struct FaultRemedy {
  enum class Kind : std::uint8_t {
    /// Nothing: the repair beat the boundary (a stale disruption).
    kNone,
    /// Drop `dead` from the delivery set on the same grant (kEvict); the
    /// runtime restarts among the survivors when the rebuild refuses.
    kEvict,
    /// Keep the healthy prefix of the grant: `keep` units (kShrink).
    kShrink,
    /// Discard the executed prefix and restart among the survivors.
    kRestart,
    /// The fabric lost the whole execution but not its data: restart it on
    /// another substrate, or suspend when none takes it.
    kMigrate,
    /// Surrender the grant and wait for repair or free capacity.
    kSuspend,
  };
  Kind kind = Kind::kNone;
  /// kEvict / kRestart: recipients the fabric lost.
  std::vector<topo::NodeId> dead;
  /// kShrink: healthy width to keep.
  std::uint32_t keep = 0;
};

/// Result of a renegotiation: the replacement plan (owning its grant), or
/// nothing — a refusal leaves `current` untouched.  On acceptance the old
/// plan's grant has been consumed in place (kGrow / kShrink / kEvict) or
/// must already have been released (kResume / kRestart); the runtime folds
/// the executed prefix and re-proves the composite schedule.
struct RenegotiationOutcome {
  std::unique_ptr<SubstrateExecution> plan;
  [[nodiscard]] bool accepted() const { return plan != nullptr; }
};

class ExecutionSubstrate {
 public:
  virtual ~ExecutionSubstrate() = default;

  [[nodiscard]] virtual SubstrateKind kind() const = 0;

  /// Capacity view the admission policies reason over, in grant units.
  [[nodiscard]] virtual std::uint32_t largest_free_grant() const = 0;
  [[nodiscard]] virtual std::uint32_t free_grant_total() const = 0;

  /// True when a grant of `min_grant` units for `participants` could be
  /// claimed right now.
  [[nodiscard]] virtual bool can_place(
      const std::vector<topo::NodeId>& participants,
      std::uint32_t min_grant) const = 0;

  /// Claim `grant` units and build the execution plan for an all-reduce of
  /// `payload` among `participants`.  The caller must have established
  /// feasibility (optical: the arbiter advertised a free run; electrical:
  /// can_place said yes) — an unsatisfiable claim is an arbitration bug and
  /// aborts, never a quiet failure.
  [[nodiscard]] virtual std::unique_ptr<SubstrateExecution> place(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant) = 0;

  /// Execute step `step` of `exec` starting at `now`: claim any per-step
  /// shared-medium resources, schedule their release events, and return the
  /// step's completion time.  The caller owns the step-boundary event.
  [[nodiscard]] virtual StepTiming time_step(SubstrateExecution& exec,
                                             std::size_t step,
                                             util::Seconds now) = 0;

  /// Release exec's standing grant (band / host links) at time `now` on the
  /// shared clock.  Idempotent; the plan itself survives for a later
  /// kResume renegotiation.  Retiming substrates need the clock to settle
  /// the execution's last flows out of the shared fabric.
  virtual void release(SubstrateExecution& exec, util::Seconds now) = 0;

  /// Step-completion corrections accumulated since the last drain: on a
  /// shared fabric another tenant's flows can move a step's end after
  /// time_step() returned, and the runtime drains this after every
  /// time_step() to re-schedule the affected step-completion events.
  /// Ownership of the entries passes to the caller; for an execution
  /// appearing twice, the later entry supersedes.
  [[nodiscard]] virtual std::vector<StepRetiming> take_retimings() {
    return {};
  }

  /// Peak utilization (fraction of capacity, in [0,1]) per fabric link over
  /// the run so far.  Empty for substrates without per-link accounting.
  [[nodiscard]] virtual std::vector<double> link_peak_utilization() const {
    return {};
  }

  /// Advisory snapshot of the demand still waiting for THIS substrate's
  /// capacity: the minimum grants (in this substrate's units) of queued
  /// jobs and suspended executions, excluding whatever the runtime is about
  /// to place.  Placement-planning substrates (the optical planner policy)
  /// score candidate placements jointly against this demand; the default
  /// ignores it.  The runtime refreshes it immediately before each place()
  /// and each kResume / kRestart renegotiation (the calls that allocate a
  /// fresh grant), so a substrate may treat it as current there.
  virtual void note_pending_demand(const std::vector<std::uint32_t>& min_grants) {
    (void)min_grants;
  }

  /// Register the substrate's own metrics (grant-churn counters, occupancy
  /// and utilization gauges) with `registry` and keep the handles for the
  /// run.  Called at most once, before any placement; the default registers
  /// nothing.  The registry must outlive the substrate.
  virtual void attach_metrics(obs::MetricsRegistry& registry) {
    (void)registry;
  }

  /// End-of-run self audit.  A substrate with an independent whole-horizon
  /// oracle (the shared electrical fabric replays every logged flow into a
  /// fresh network) re-proves its incremental timing here and ABORTS on any
  /// disagreement — mirroring the fatal semantics of a wavelength conflict.
  /// Returns the number of steps audited (0 when there is nothing to
  /// check).
  [[nodiscard]] virtual std::uint64_t self_check() const { return 0; }

  /// Predicted completion time of a fresh `grant`-unit execution — the
  /// hybrid cost-model placement signal (WRHT formula time vs. alpha-beta).
  [[nodiscard]] virtual util::Seconds predict_makespan(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant) const = 0;

  /// Congestion-aware routing signal: the predicted ABSOLUTE completion
  /// time of a fresh execution submitted at `now`, folding in what the
  /// substrate knows about its current state — the live residual bandwidth
  /// of shared fabric links (electrical), or the expected wait for a free
  /// spectrum band (optical).  On an idle substrate this equals
  /// now + predict_makespan.
  [[nodiscard]] virtual util::Seconds predict_completion(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant, util::Seconds now) const = 0;

  /// THE step-boundary renegotiation entry point.  A substrate refuses the
  /// kinds its grants do not support (an electrical host claim cannot grow
  /// or shrink).  `current` is the plan being renegotiated — null allowed
  /// only for kRestart, which reads nothing from it.  See
  /// RenegotiationRequest for per-kind semantics.
  [[nodiscard]] virtual RenegotiationOutcome renegotiate(
      SubstrateExecution* current, const RenegotiationRequest& request) = 0;

  /// What-if probe: largest free grant if `exec` kept only `keep` units of
  /// its current grant (the shrink-under-pressure decision signal).
  [[nodiscard]] virtual std::uint32_t free_grant_if_kept(
      const SubstrateExecution& exec, std::uint32_t keep) const;

  // --- Capacity and preemption --------------------------------------------

  /// Whether a queued entry's urgency counts against this substrate's
  /// capacity: the entries a suspended execution here must not be resumed
  /// ahead of, and the ones that justify preempting this substrate's
  /// tenants.
  [[nodiscard]] virtual bool contends(const QueueEntry& entry) const = 0;
  /// Whether a job pinned `pin` may run here at all.
  [[nodiscard]] virtual bool accepts(SubstratePin pin) const = 0;
  /// Indices into `running` (this substrate's executions, in run order) to
  /// ask to surrender their grants so `waiter` can be served.  Empty when
  /// nothing needs to surrender or surrendering cannot help.
  [[nodiscard]] virtual std::vector<std::size_t> preemption_victims(
      const PreemptionWaiter& waiter,
      const std::vector<PreemptionCandidate>& running) const = 0;

  // --- Fault health ---------------------------------------------------------

  /// A fault landed / was repaired: update the down refcounts (overlapping
  /// faults on one subject must not resurrect it on the first repair),
  /// quarantine freed dead units, return repaired ones to service.  Faults
  /// in domains this fabric does not have are ignored.
  virtual void fail(const FaultSpec& fault) = 0;
  virtual void repair(const FaultSpec& fault) = 0;
  /// The members of `nodes` whose data this fabric has lost (out-of-service
  /// ring positions; empty on a fabric whose hosts checkpoint at step
  /// boundaries).
  [[nodiscard]] virtual std::vector<topo::NodeId> down_among(
      const std::vector<topo::NodeId>& nodes) const = 0;
  /// Whether `fault`, just applied, disrupts `plan` serving `recipients`.
  [[nodiscard]] virtual bool disrupts(
      SubstrateExecution& plan, const std::vector<topo::NodeId>& recipients,
      const FaultSpec& fault) = 0;
  /// What `plan`'s next step boundary must do against the CURRENT down sets
  /// (`min_grant` is the floor a shrink may not cross).  Consumes the marks
  /// disrupts() left on the plan.
  [[nodiscard]] virtual FaultRemedy remedy(
      SubstrateExecution& plan, const std::vector<topo::NodeId>& recipients,
      std::uint32_t min_grant) = 0;
};

/// The WDM-ring substrate (spectrum arbiter + Wrht builds + shared-map
/// per-step reservations).  `ring` and `sim` must outlive the substrate.
/// `flat_hot_path` selects the interval-indexed arbiter, batched per-step
/// spectrum-release events, and O(1) backlog-registry removal; false
/// restores the original per-transfer/linear-scan behaviour (identical
/// schedules and reports either way — it exists as a benchmark baseline).
/// `spectrum_policy` picks who places bands: the SpectrumPlanner (default)
/// or the historical greedy first-fit (ablation baseline).  Wavelengths are
/// colored first-fit.
[[nodiscard]] std::unique_ptr<ExecutionSubstrate> make_optical_substrate(
    const topo::RingTopology& ring, const optical::OpticalParams& params,
    sim::Simulator& sim, bool flat_hot_path = true,
    SpectrumPolicy spectrum_policy = SpectrumPolicy::kPlanner);

/// Which electrical fabric backs the fallback substrate.
enum class ElectricalFabric : std::uint8_t {
  /// Star cluster, exclusive host access links: every execution times its
  /// steps on a private quiet network (exact, but tenants never contend).
  kStarExclusive,
  /// Oversubscribed two-level tree (hosts -> ToRs -> core), ONE shared
  /// FlowNetwork for the whole fabric: concurrent executions' flows share
  /// the ToR uplinks under max-min fairness, so a step's completion time
  /// depends on what other tenants are sending — and moves when they start
  /// or stop (take_retimings).
  kTwoLevelShared,
};

[[nodiscard]] const char* electrical_fabric_name(ElectricalFabric fabric);

/// Electrical-fallback fabric configuration.
struct ElectricalFallbackConfig {
  /// Host access-link spec of the cluster backing the fallback.
  elec::ElectricalParams link{};
  /// Hard cap on concurrent electrical executions (0 = bounded only by
  /// per-host link exclusivity).
  std::uint32_t max_concurrent = 0;
  ElectricalFabric fabric = ElectricalFabric::kStarExclusive;
  /// kTwoLevelShared shape: hosts per ToR switch, and the factor by which
  /// each ToR uplink is undersized relative to its hosts' aggregate access
  /// bandwidth (1.0 = full bisection, 4.0 = classic 4:1 oversubscription).
  std::uint32_t hosts_per_tor = 8;
  double oversubscription = 1.0;
  /// Keep the whole-horizon flow-replay log (every injected step + every
  /// clock advance) so self_check() can re-prove the incremental timing
  /// against a fresh network at end of run.  The log grows with the run —
  /// O(total steps) — which is exactly what a million-job serving benchmark
  /// cannot afford, so streaming front ends may turn it off; self_check()
  /// then audits nothing and returns 0.  Timing is bit-identical either
  /// way: the flag gates only the logging.
  bool replay_audit = true;
};

/// The flow-simulator fallback substrate over `num_hosts` hosts (one per
/// ring position, so any participant set maps 1:1 onto hosts), wired to the
/// fabric `config` picks.  Host claims stay exclusive on BOTH fabrics — a
/// host runs one tenant at a time; what kTwoLevelShared adds is contention
/// between different tenants' flows on the shared ToR uplinks.
[[nodiscard]] std::unique_ptr<ExecutionSubstrate> make_electrical_substrate(
    std::uint32_t num_hosts, const ElectricalFallbackConfig& config);

}  // namespace wrht::runtime
