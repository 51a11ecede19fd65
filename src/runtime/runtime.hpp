// The multi-tenant collective runtime: many all-reduce jobs, one shared
// simulation clock, and (since the substrate refactor) a choice of
// execution fabrics.
//
// The seed library runs a single Wrht schedule per experiment; this runtime
// is the serving layer above it.  Tenants submit jobs (participant subset +
// payload + arrival time).  On arrival a job enters the admission queue;
// the fairness policy decides who runs next.  Execution itself is delegated
// to a polymorphic ExecutionSubstrate (runtime/substrate.hpp): the
// substrate owns schedule construction, resource grant/release, per-step
// timing, and the renegotiation capability flags, while the runtime keeps
// admission, fairness, batching, the shared clock, and oracle validation.
//
// The primary substrate is the paper's optical WDM ring: the arbiter
// carves a disjoint wavelength band per admitted job, each job's Wrht
// schedule is built against its private band width and progressed step by
// step as events on ONE sim::Simulator, with the shared SpectrumMap
// re-checking every (span, wavelength, direction) reservation.  Under a
// hybrid placement policy the runtime also serves the ELECTRICAL fallback
// fabric (src/elec's flow simulator): when the spectrum saturates, queued
// arrivals are placed onto host links of an electrical cluster instead of
// waiting — kElectricalOverflow spills whatever the optical loop declined,
// kCostModelChoice routes each job to whichever fabric the cost models
// predict is faster, and JobSpec::pin lets a tenant force (or forbid) the
// fallback outright.  The fallback fabric itself is configurable: an
// exclusive star (every execution times its steps on a private quiet
// network) or an oversubscribed two-level tree whose shared ToR uplinks
// make concurrent executions contend — there one SharedFabricTimer times
// every in-flight electrical step together, step-completion events are
// re-scheduled when other tenants change the contention (kStepRetimed),
// and a whole-horizon flow replay re-proves every step time at the end of
// the run.  Both timing models run on the same clock and land in one
// report, with per-substrate breakdowns and per-job contention slowdowns.
//
// Small same-group jobs are fused by the Batcher into a single schedule
// (one set of per-step overheads for the whole batch), optionally after a
// fuse_window admission delay so bursts arriving on an idle ring still
// fuse, and every execution's schedule is proven correct with the coll::
// oracle before it touches its fabric.
//
// Step-boundary renegotiation: the runtime may PREEMPT an execution at a
// step boundary (suspend it, surrender its whole grant to a higher-priority
// waiter under FairnessPolicy::kPriorityPreempt, resume it later on
// whatever grant it regains) on either substrate, or RESIZE an execution
// holding a wavelength band (grow into freed neighboring spectrum, or
// shrink toward the job's floor when queued tenants starve).  Every path
// rebuilds the execution's remaining schedule through the substrate and
// every rebuilt remainder is re-proven with the oracle — composed with the
// functional steps already executed — before it touches the fabric.
//
// Policy here, mechanism in the substrates: the runtime runs ONE
// admit -> preempt -> reconcile cycle whatever the fabric.  It picks the
// most urgent waiter per substrate and says whom it outranks; the substrate
// ranks the victims (preemption_victims).  A fault is applied to every
// substrate's own health state (fail / repair); the substrate says which
// running plans it disrupts and, at their next step boundary, what they
// need (remedy).  The runtime then kills a job left with fewer than two
// live participants, or carries out the remedy through renegotiate():
// evict in place, restart among the survivors (one helper, shared with the
// resume path), shrink to the healthy prefix, migrate to another
// substrate, or fault-suspend until repair.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "optical/params.hpp"
#include "runtime/admission.hpp"
#include "runtime/batcher.hpp"
#include "runtime/faults.hpp"
#include "runtime/job.hpp"
#include "runtime/substrate.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace wrht::runtime {

/// Which fabrics admission may place jobs on.
enum class HybridPlacementPolicy : std::uint8_t {
  /// Optical ring only; saturated-spectrum arrivals queue (pre-refactor
  /// behavior, the default).
  kOpticalOnly,
  /// Optical first; whatever the optical admission loop declines spills
  /// onto the electrical fallback as soon as its hosts are free.
  kElectricalOverflow,
  /// Route each arrival to whichever fabric the cost models predict
  /// FINISHES it sooner.  What "predict" means is picked by
  /// RuntimeConfig::routing_cost_model; routing is work-conserving, not
  /// sticky — an electrical-predicted job whose hosts are busy still runs
  /// on free optical spectrum rather than idle-waiting for the fallback.
  kCostModelChoice,
};

[[nodiscard]] const char* hybrid_placement_policy_name(
    HybridPlacementPolicy policy);

/// Cost signal kCostModelChoice compares when routing an arrival.
enum class RoutingCostModel : std::uint8_t {
  /// Quiet-network RUN times only: WRHT formula time vs. the alpha-beta
  /// cost of the schedule the electrical fabric would pick, both as if the
  /// job ran alone.  Blind to saturation on either side — kept as the
  /// ablation baseline the congestion-aware model is measured against.
  kQuietAlphaBeta,
  /// Predicted COMPLETION times under the fabrics' current state: the
  /// electrical side folds the live residual uplink bandwidth of the
  /// shared fabric into its estimate (a saturated fabric stops attracting
  /// over-spill), the optical side folds the predicted wait for a free
  /// spectrum band (a backed-up ring stops holding jobs hostage).  Every
  /// decision is traced with both predictions and scored against the
  /// job's actual completion in the report.
  kCongestionAware,
};

struct RuntimeConfig {
  /// Nodes on the shared ring.
  std::uint32_t ring_size = 64;
  /// Optical cost model; wdm.num_wavelengths is the total spectrum budget
  /// the arbiter partitions between tenants.
  optical::OpticalParams optical{};
  FairnessPolicy policy = FairnessPolicy::kFifo;
  BatcherConfig batcher{};
  /// Wavelength request used when a JobSpec leaves requested_wavelengths 0.
  std::uint32_t default_request = 8;
  /// Prove every execution's schedule with the functional oracle before
  /// running it.
  bool validate_with_oracle = true;
  /// Doubles per payload row in each proof.  A proof materializes one row
  /// per node it can observe (the participants and every transfer's
  /// endpoints, never the idle rest of the ring), so its cost scales with
  /// the job's participants, this length, and the schedule's transfers.
  static constexpr std::size_t oracle_payload_len = 48;
  /// Step-boundary elastic resize: grow a running execution's band into
  /// adjacent freed spectrum when that shortens its remaining schedule, and
  /// shrink a band toward its jobs' floor when the shrink would unblock a
  /// starved queued job.
  bool elastic_resize = false;
  /// Who places spectrum bands on the optical substrate: the global
  /// SpectrumPlanner (default — joint placement against queued + suspended
  /// demand and outstanding bands' predicted frees, see runtime/planner.hpp)
  /// or the historical greedy first-fit, kept as the ablation baseline.
  SpectrumPolicy spectrum_policy = SpectrumPolicy::kPlanner;
  /// Priority aging half-life for starvation control (0 = aging off, the
  /// historical behavior).  While a job waits — queued, or suspended after a
  /// preemption — its EFFECTIVE priority rises by one class per
  /// aging_half_life of sim-clock wait, so a repeatedly-preempted tenant
  /// eventually outranks the traffic that keeps displacing it.  Running
  /// executions keep their raw priority; aging applies at admission,
  /// preemption-target, and resume comparisons.
  util::Seconds aging_half_life{0.0};
  /// Hybrid placement across substrates.
  HybridPlacementPolicy placement = HybridPlacementPolicy::kOpticalOnly;
  /// What kCostModelChoice compares (ignored by the other placements).
  RoutingCostModel routing_cost_model = RoutingCostModel::kCongestionAware;
  /// Electrical fallback fabric (used when placement != kOpticalOnly).
  ElectricalFallbackConfig electrical{};
  /// Observability sink.  When set, the runtime and its substrates register
  /// counters/gauges/histograms here and the registry's time-series sampler
  /// is pumped on every runtime event; when null, every emission site keeps
  /// a null handle and the hot path does no observability work at all.
  /// Must outlive the runtime.
  obs::MetricsRegistry* metrics = nullptr;
  /// Fault stream injected alongside the workload (null = no faults, the
  /// default).  Each fault and its repair become ordinary events on the
  /// shared clock; disruptions are detected at the affected executions'
  /// next BSP step boundaries and resolved through the same renegotiate()
  /// entry point preemption and resize use.  Must outlive the runtime.
  FaultSource* faults = nullptr;
  /// Flattened event-loop hot paths (on by default): event-queue slot
  /// recycling + lazy heap compaction, the interval-indexed spectrum
  /// arbiter, batched per-step spectrum releases, O(1) outstanding-registry
  /// removal, and the admission queue's head-offset take.  Every flattened
  /// path makes bit-identical decisions, so reports match the naive mode
  /// exactly; false restores the original O(n)-per-event behavior as the
  /// benchmark baseline (bench/serve_throughput measures the gap).
  bool flat_hot_path = true;
};

/// Per-substrate slice of a run: how much of the workload each fabric
/// carried, and its contribution to the shared-clock makespan (the
/// completion time of the last job it ran).
struct SubstrateBreakdown {
  std::uint32_t jobs = 0;
  std::uint32_t executions = 0;
  std::uint64_t steps = 0;
  util::Seconds makespan{0.0};
  /// Wall-clock the fabric's steps actually took vs. what they would have
  /// taken on a quiet network — the aggregate contention story.  Zero/zero
  /// for substrates without a quiet baseline (optical).
  util::Seconds busy_time{0.0};
  util::Seconds quiet_time{0.0};

  /// Aggregate contention slowdown (1.0 = nobody ever contended; 0.0 = no
  /// quiet baseline on this substrate).
  [[nodiscard]] double contention_slowdown() const {
    return quiet_time.value() > 0.0 ? busy_time.value() / quiet_time.value()
                                    : 0.0;
  }
};

/// Cost-model routing audit: how often each fabric won, and how far the
/// router's predicted completion times landed from the truth.  Errors are
/// relative to the predicted span (|actual - predicted| / (predicted -
/// decision time)), so a 0.25 means the job finished a quarter of its
/// predicted duration away from the promise — in either direction.
struct RoutingStats {
  std::uint32_t decisions = 0;
  std::uint32_t to_optical = 0;
  std::uint32_t to_electrical = 0;
  double mean_error = 0.0;
  double worst_error = 0.0;
};

/// What the fault stream did to the run, and what the recovery machinery
/// did about it.  All zero when RuntimeConfig::faults is null.
struct FaultStats {
  std::uint32_t injected = 0;
  std::uint32_t transceiver_faults = 0;
  std::uint32_t node_faults = 0;
  std::uint32_t tor_faults = 0;
  std::uint32_t wavelength_faults = 0;
  std::uint32_t repairs = 0;
  /// Running executions a fault forced into a boundary renegotiation.
  std::uint32_t disrupted_executions = 0;
  /// In-place survivor rebuilds: the remainder re-proven with the failed
  /// nodes stripped from its delivery set (kEvict accepted).
  std::uint32_t evictions = 0;
  /// Fresh plans among the survivors after the remainder could not absorb
  /// the eviction (kRestart accepted, executed prefix discarded).
  std::uint32_t restarts = 0;
  /// Cross-substrate moves: ToR-orphaned electrical executions restarted
  /// on the optical ring.
  std::uint32_t migrations = 0;
  /// Fault-triggered suspensions (a subset of the report's preemptions):
  /// the execution waits for repair or free capacity, then resumes.
  std::uint32_t fault_preemptions = 0;
  /// Jobs whose live participant count fell below 2 (JobState::kFailed).
  std::uint32_t killed_jobs = 0;
  /// Completed recoveries: from a fault first disrupting a RUNNING
  /// execution to that execution running again (evicted, restarted,
  /// migrated, or resumed).
  std::uint32_t recoveries = 0;
  util::Seconds total_recovery{0.0};
  /// Step wall-clock discarded by restarts, migrations, and kills — the
  /// executed work the fault threw away.
  util::Seconds wasted_step_time{0.0};

  [[nodiscard]] util::Seconds mttr() const {
    return recoveries == 0 ? util::Seconds(0.0)
                           : util::Seconds(total_recovery.value() /
                                           static_cast<double>(recoveries));
  }
};

struct RuntimeReport {
  util::Seconds makespan{0.0};
  std::uint32_t submitted = 0;
  std::uint32_t completed = 0;
  std::uint32_t rejected = 0;
  /// Executions started / executions that fused more than one job.
  std::uint32_t executions = 0;
  std::uint32_t batches = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t total_retunes = 0;
  /// (arc, wavelength) reservations checked against the shared spectrum
  /// map.  A cross-job conflict aborts the process, so a finished run had
  /// zero wavelength-conflict aborts by construction; this counts how many
  /// opportunities there were.
  std::uint64_t spectrum_reservations = 0;
  /// Most jobs simultaneously holding a grant (on any substrate) at any
  /// instant.
  std::uint32_t peak_concurrent_jobs = 0;
  /// Executions whose schedule failed the functional oracle.  Like a
  /// wavelength conflict this aborts the process, so a returned report
  /// always says 0; the field documents that the checks ran.
  std::uint32_t oracle_failures = 0;
  /// Step-boundary renegotiations: executions suspended for a
  /// higher-priority arrival, executions resumed afterwards, and band
  /// grow/shrink rebuilds applied in place.
  std::uint32_t preemptions = 0;
  std::uint32_t resumes = 0;
  std::uint32_t resizes = 0;
  /// Step-completion events re-scheduled on the sim clock because another
  /// tenant's flows changed the shared electrical fabric's contention
  /// (always 0 on the exclusive star fabric).
  std::uint64_t step_retimes = 0;
  /// Steps audited by the substrates' end-of-run self checks (the shared
  /// electrical fabric's whole-horizon flow replay).  A disagreement aborts
  /// the process, so a returned report documents that this many steps were
  /// re-proven.
  std::uint64_t replay_checked_steps = 0;
  /// Peak utilization per electrical-fabric link (fraction of capacity),
  /// indexed by the fallback cluster's link ids.  Empty without a shared
  /// electrical fabric.
  std::vector<double> electrical_link_peak;
  util::Seconds total_turnaround{0.0};
  /// Per-decision routing audit under kCostModelChoice (all zero for the
  /// other placements).
  RoutingStats routing;
  /// Both timing models under one report: what each fabric carried.
  /// optical.jobs + electrical.jobs == completed, and likewise for
  /// executions and steps.
  SubstrateBreakdown optical;
  SubstrateBreakdown electrical;
  /// SLO percentiles over the completed jobs (exact nearest-rank quantiles
  /// recomputed from the job records at run end — registry-independent, so
  /// they are present even when RuntimeConfig::metrics is null).
  obs::SloStats slo;
  /// Chaos accounting (all zero without a fault stream).  The job ledger
  /// under faults closes as completed + rejected + faults.killed_jobs ==
  /// submitted.
  FaultStats faults;
  /// Total step wall-clock across both fabrics — the goodput denominator.
  util::Seconds step_time_total{0.0};

  [[nodiscard]] util::Seconds mean_turnaround() const {
    return completed == 0 ? util::Seconds(0.0)
                          : util::Seconds(total_turnaround.value() /
                                          static_cast<double>(completed));
  }
  /// Fraction of step time that contributed to a completed job: 1 minus
  /// the share restarts/migrations/kills threw away.  1.0 on a fault-free
  /// run (or before any step ran).
  [[nodiscard]] double goodput() const {
    return step_time_total.value() > 0.0
               ? 1.0 - faults.wasted_step_time.value() /
                           step_time_total.value()
               : 1.0;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Pull-based stream of job specs — the seam between the workload layer
/// (generators, trace replay) and the runtime's streaming front end.
/// serve() pulls the next spec only when the clock reaches the previous
/// arrival, so a million-job trace is never materialized up front: at any
/// instant the runtime holds one not-yet-arrived spec, not the whole tail.
class JobSource {
 public:
  virtual ~JobSource() = default;
  /// The next job spec, or nullopt when the stream is exhausted.  Specs
  /// MUST be yielded in nondecreasing arrival order (serve() aborts
  /// otherwise — out-of-order arrivals would silently warp the clock).
  virtual std::optional<JobSpec> next() = 0;
};

class CollectiveRuntime {
 public:
  explicit CollectiveRuntime(RuntimeConfig config);

  /// Register a job.  Infeasible specs (bad participant list, or a minimum
  /// demand no grant can ever satisfy) are rejected immediately.  Must be
  /// called before run().
  JobId submit(JobSpec spec);

  /// Drive the shared clock until every submitted job has completed.
  RuntimeReport run();

  /// Streaming variant of run(): pull specs from `source` one at a time —
  /// each arrival event ingests the NEXT spec and chains the next arrival —
  /// so the event queue and spec storage stay O(in-flight), not O(trace).
  /// Jobs submit()ted beforehand run too.  Rejected specs are counted and
  /// recorded exactly as submit() would.  `source` must outlive the call.
  RuntimeReport serve(JobSource& source);

  [[nodiscard]] const JobRecord& record(JobId id) const;
  [[nodiscard]] std::size_t num_jobs() const { return records_.size(); }
  /// All job records, indexed by JobId — the trace exporter's input.
  [[nodiscard]] const std::vector<JobRecord>& records() const {
    return records_;
  }
  /// Job ids in completion order (deterministic for a fixed submission set).
  [[nodiscard]] const std::vector<JobId>& completion_order() const {
    return completion_order_;
  }
  [[nodiscard]] const topo::RingTopology& ring() const { return ring_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] const sim::Trace& trace() const { return trace_; }
  [[nodiscard]] util::Seconds now() const { return simulator_.now(); }

 private:
  /// One admitted unit of work: a single job or a fused batch, bound to the
  /// substrate that placed it.  `plan` is the substrate's schedule +
  /// resources for the work still ahead (the whole job at admission, the
  /// rebuilt remainder after a renegotiation); `executed` accumulates the
  /// functional steps already run, so the composite executed + plan can be
  /// re-proven with the oracle after every rebuild.
  struct Execution {
    std::vector<JobId> jobs;
    ExecutionSubstrate* substrate = nullptr;
    std::unique_ptr<SubstrateExecution> plan;
    /// Urgency (max over fused jobs) under kPriorityPreempt.  Starts at the
    /// lowest representable value so max-folding preserves NEGATIVE tenant
    /// priorities instead of flattening them to 0.
    std::int32_t priority = std::numeric_limits<std::int32_t>::min();
    /// Narrowest band the execution accepts (max over fused jobs' minima).
    std::uint32_t min_width = 1;
    /// Widest band the execution can exploit (growth ceiling).
    std::uint32_t useful_cap = 1;
    /// Every node whose contribution the all-reduce sums.
    std::vector<topo::NodeId> participants;
    /// The participants that must end holding the sum: all of them, minus
    /// the failed ones already stripped from the remainder's delivery set
    /// (their contributions are merged; their hardware is gone).
    std::vector<topo::NodeId> recipients;
    util::Bytes batch_payload;
    std::vector<coll::Step> executed;
    std::size_t next_step = 0;
    /// A queued higher-priority job asked for this grant; surrender it at
    /// the next step boundary.
    bool preempt_requested = false;
    /// A fault touched this execution's resources; ask its substrate for a
    /// remedy at the next step boundary.
    bool fault_pending = false;
    /// The executed prefix was discarded (the remainder could not absorb
    /// an eviction): the next resume issues kRestart among `participants`
    /// (already shrunk to the survivors) instead of kResume.
    bool fresh_restart = false;
    /// When a fault first disrupted this RUNNING execution (0 = not
    /// disrupted) — the recovery-time (MTTR) anchor, cleared when the
    /// execution runs again.
    util::Seconds fault_since{0.0};
    bool suspended = false;
    /// When the execution last suspended (valid while `suspended`) — the
    /// clock priority aging runs against.
    util::Seconds suspended_since{0.0};
    /// Sim-clock handle of the in-flight step's completion event — the
    /// thing a shared-fabric retiming cancels and re-schedules.
    std::uint64_t step_event = 0;
    /// When the in-flight step started, and the accumulated actual/quiet
    /// durations of finished steps (the per-job contention slowdown).
    util::Seconds step_started{0.0};
    util::Seconds busy_time{0.0};
    util::Seconds quiet_time{0.0};
  };

  /// The body of submit(), minus the pre-run() guard: validate, record,
  /// count.  serve() calls it mid-run for every spec its source yields.
  JobId ingest(JobSpec spec);
  /// Pull specs from source_ until one is accepted (rejects are recorded
  /// and skipped), then schedule its arrival event — which ingests the
  /// next spec in turn.  `floor` is the previous arrival time, enforcing
  /// the source's nondecreasing-arrival contract.
  void pump_source(util::Seconds floor);
  /// Shared body of run()/serve(): schedule the pre-submitted arrivals,
  /// chain in `source` (null for run()), bookend the metrics, drain the
  /// clock, run the end-of-run audits, and seal the report.
  RuntimeReport drive(JobSource* source);
  void on_arrival(JobId id);
  void try_admit();
  /// Shared placement tail: pop the queue entry at `queue_index` plus its
  /// fusable peers, build the plan with `grant` units on `substrate`, prove
  /// it, and dispatch its first step.  A fused peer executes inside the
  /// lead's grant, so its min_wavelengths must fit `fuse_band_width`: the
  /// granted band for an optical placement, nullopt for an electrical one
  /// (host claims carry no band, so no peer floor applies).
  void place_execution(ExecutionSubstrate& substrate, std::size_t queue_index,
                       std::uint32_t grant,
                       std::optional<std::uint32_t> fuse_band_width);
  /// Count exec's jobs as running and dispatch its next step.
  void start(const std::shared_ptr<Execution>& exec);
  /// Hybrid placement: move one queued job onto the electrical fallback
  /// (kElectricalOverflow: anything still queued; kCostModelChoice: only
  /// jobs the cost models route there).  Returns true when a job was placed.
  bool try_place_one_electrical();
  /// Completion prediction under the configured routing cost model.
  [[nodiscard]] util::Seconds predict(
      const ExecutionSubstrate& substrate,
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant) const;
  void run_step(const std::shared_ptr<Execution>& exec);
  /// The step-completion event body: fold the step's wall-clock, then
  /// finish / renegotiate / dispatch the next step.
  void on_step_end(const std::shared_ptr<Execution>& exec);
  /// Drain `substrate`'s pending step retimings (shared-fabric contention
  /// changes) and re-schedule the affected completion events.
  void apply_retimings(ExecutionSubstrate& substrate);
  void finish_execution(const std::shared_ptr<Execution>& exec);

  /// The step-boundary renegotiation point: called between two steps of
  /// `exec`, with exec's own cells released and its grant still held.  May
  /// suspend the execution or swap in a rebuilt remainder on a different
  /// band.  Returns true when the execution surrendered its grant HERE —
  /// the caller must not dispatch the next step then, even if a
  /// same-instant resume already restarted the execution (the resume
  /// dispatched it).
  [[nodiscard]] bool renegotiate(const std::shared_ptr<Execution>& exec);
  /// Release exec's grant (a no-op when a refused restart already did) and
  /// park it for a later resume.  `fault` marks a fault-triggered
  /// suspension, counted separately.
  void suspend_execution(const std::shared_ptr<Execution>& exec,
                         bool fault = false);
  bool try_resume_one();

  /// Pull the next fault from the stream and schedule its injection event
  /// (which chains the next pull) — the chaos mirror of pump_source.
  void pump_faults();
  /// Once the workload is done — the source exhausted and every job
  /// completed, rejected or killed, so nothing is still to arrive, queued,
  /// running or suspended — drop the pending injection and stop pulling,
  /// so a long fault horizon cannot keep the clock running after the last
  /// job.  Called where live work drains (completions and kills).
  void stop_faults_if_workload_done();
  /// The injection event body: apply the fault to every substrate, mark
  /// the running executions it disrupts, kill suspended work it left
  /// without a quorum, and schedule the repair.
  void on_fault(const FaultSpec& fault);
  void on_fault_repair(const FaultSpec& fault);
  /// Boundary reconciliation of a fault-marked execution: carry out the
  /// remedy its substrate names against the CURRENT down sets (a repair may
  /// have landed first — then this is a no-op recovery).  Returns true when
  /// the caller must not dispatch the next step (killed or suspended).
  [[nodiscard]] bool reconcile_faults(const std::shared_ptr<Execution>& exec);
  /// Cross-substrate restart of a fault-orphaned execution on the first
  /// other substrate that accepts every carried job, has every participant
  /// in service, and grants the restart.  True when the execution moved.
  [[nodiscard]] bool migrate(const std::shared_ptr<Execution>& exec);
  /// Throw away the executed prefix — its step time becomes waste — and
  /// make `survivors` the participant and recipient set of the next plan.
  void discard_prefix(Execution& exec, std::vector<topo::NodeId> survivors);
  /// kRestart of exec's work on `target` with `desired` units.
  [[nodiscard]] RenegotiationOutcome restart_on(ExecutionSubstrate& target,
                                                Execution& exec,
                                                std::uint32_t desired);
  /// Faults left fewer than 2 live participants: mark every carried job
  /// JobState::kFailed, release the grant, and drop the execution.
  void kill_execution(const std::shared_ptr<Execution>& exec);
  /// Close the MTTR window opened when a fault disrupted this running
  /// execution (no-op when none is open).
  void note_recovery(Execution& exec);
  /// Ask lower-priority executions to surrender their grants at the next
  /// step boundary, per substrate: the runtime picks each substrate's most
  /// urgent waiter (a contending queued job or a suspended execution of
  /// that substrate — suspending across fabrics would free nothing the
  /// waiter can use), and the substrate ranks the victims.
  void request_preemptions();
  /// A queued entry's priority, aged by its wait.
  [[nodiscard]] std::int32_t aged(const QueueEntry& entry) const;
  /// The queued entry admission would serve first among those contending
  /// for `substrate` (highest aged priority, oldest among equals).
  [[nodiscard]] std::optional<std::size_t> contender_head(
      const ExecutionSubstrate& substrate) const;
  [[nodiscard]] std::int32_t top_contender_priority(
      const ExecutionSubstrate& substrate) const;
  /// Highest effective priority among suspended executions of `substrate`
  /// — the waiters contending for that fabric's capacity (nullopt: none).
  [[nodiscard]] std::optional<std::int32_t> top_suspended(
      const ExecutionSubstrate& substrate) const;
  /// `exec`'s effective priority right now: raw while running, aged by the
  /// suspension wait while suspended.
  [[nodiscard]] std::int32_t effective_priority(const Execution& exec) const;
  /// Refresh `substrate`'s advisory pending-demand snapshot (minimum
  /// widths of the queue head's contenders + its suspended executions,
  /// minus `excluding`) ahead of a placement or renegotiation.
  void publish_demand(ExecutionSubstrate& substrate,
                      const Execution* excluding);
  /// Record + trace the cost-model verdict that just bound for `exec`.
  /// Only genuine router choices are audited: kCostModelChoice placements
  /// of un-pinned jobs (a pinned tenant decided for itself — its outcome
  /// must not color the router's accuracy figures).
  void audit_route_decision(const Execution& exec,
                            std::uint32_t optical_request, SubstratePin pin);
  void try_shrink(const std::shared_ptr<Execution>& exec);
  /// Grow or shrink exec's grant in place; an accepted rebuild is adopted,
  /// counted and traced.  Returns whether the substrate accepted.
  bool resize(Execution& exec, const RenegotiationRequest& request);

  /// Fold the executed prefix of exec's current plan into exec->executed,
  /// install `next` as the new plan, update the job records, and re-prove
  /// the composite with the oracle.
  void adopt_plan(Execution& exec, std::unique_ptr<SubstrateExecution> next);
  void verify_composite_or_die(const Execution& exec);
  void trace_job(sim::TraceKind kind, JobId id, const WavelengthBand& band);
  [[nodiscard]] SubstrateBreakdown& breakdown(SubstrateKind kind);

  /// Cached metric handles; all nullptr when config_.metrics is null, so
  /// every emission site is a single null check (no lookups, no strings,
  /// no allocation on the hot path).
  struct Instruments {
    obs::Counter* jobs_submitted = nullptr;
    obs::Counter* jobs_completed = nullptr;
    obs::Counter* jobs_rejected = nullptr;
    obs::Counter* jobs_fused = nullptr;
    obs::Counter* preemptions = nullptr;
    obs::Counter* resumes = nullptr;
    obs::Counter* resizes = nullptr;
    obs::Counter* step_retimes = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* running_jobs = nullptr;
    obs::Gauge* suspended_jobs = nullptr;
    obs::Histogram* admission_wait = nullptr;
    obs::Histogram* batch_jobs = nullptr;
    obs::Histogram* turnaround = nullptr;
    obs::Histogram* slowdown = nullptr;
    obs::Histogram* routing_error = nullptr;
    obs::Counter* faults_injected = nullptr;
    obs::Counter* fault_repairs = nullptr;
    obs::Counter* fault_recoveries = nullptr;
    obs::Counter* jobs_killed = nullptr;
  };
  /// Register the runtime's metrics (and the substrates') with
  /// config_.metrics; no-op when null.
  void init_instruments();
  /// Refresh the sampled gauges (queue depth, running/suspended jobs) and
  /// give the registry's time-series sampler a chance to take a snapshot at
  /// the current sim time.  Called at the end of every event handler; no-op
  /// without a registry.
  void pump_metrics();
  /// Find-or-create the "runtime.max_wait_seconds.p<priority>" gauge — the
  /// per-priority-class starvation bound (max admission wait seen so far).
  [[nodiscard]] obs::Gauge* max_wait_gauge(std::int32_t priority);

  RuntimeConfig config_;
  topo::RingTopology ring_;
  sim::Simulator simulator_;
  std::unique_ptr<ExecutionSubstrate> optical_;
  std::unique_ptr<ExecutionSubstrate> electrical_;
  /// Every configured substrate, optical first — the order the generic
  /// cycle (preemption, fault application, audits) visits them in.
  std::vector<ExecutionSubstrate*> substrates_;
  JobQueue queue_;
  std::vector<JobRecord> records_;
  std::vector<JobId> completion_order_;
  sim::Trace trace_;
  RuntimeReport report_;
  std::vector<std::shared_ptr<Execution>> running_execs_;
  /// Preempted executions awaiting spectrum, in suspension order.
  std::vector<std::shared_ptr<Execution>> suspended_;
  std::uint64_t next_seq_ = 0;
  std::uint32_t running_jobs_ = 0;
  /// Completion time of the last job so far — the report's makespan.  The
  /// drained clock can sit later (a stale fuse-window hold-release event is
  /// a legal no-op after the last completion).
  util::Seconds last_completion_{0.0};
  /// Running sum of per-decision routing errors; becomes the report's mean
  /// at run end.
  double routing_error_sum_ = 0.0;
  /// {optical, electrical} completion predictions try_place_one_electrical
  /// already computed for the job it is placing, handed to
  /// audit_route_decision so the congestion probe (a FlowNetwork clone +
  /// fluid forward run) is not paid twice per placement.  Always consumed
  /// (or discarded) by the audit of the very next placement.
  std::optional<std::pair<util::Seconds, util::Seconds>>
      pending_route_prediction_;
  /// Live only inside serve(): the stream the arrival chain pulls from.
  JobSource* source_ = nullptr;
  /// Live while the fault chain still pulls (null = exhausted or never
  /// configured); the floor enforces the stream's nondecreasing contract.
  FaultSource* fault_source_ = nullptr;
  util::Seconds last_fault_at_{0.0};
  /// Sim-clock handle of the pending injection event (valid while
  /// fault_source_ is set).
  std::uint64_t fault_event_ = 0;
  bool started_ = false;
  Instruments ins_;
  /// Per-priority-class max-admission-wait gauges, keyed by JobSpec
  /// priority (created on first placement of that class).
  std::map<std::int32_t, obs::Gauge*> max_wait_by_priority_;
};

}  // namespace wrht::runtime
