// The electrical-fallback execution substrate: the alpha-beta/flow baseline
// fabric from src/elec serving overflow tenants when the optical spectrum
// saturates.
//
// Grant model — link capacity.  The fallback maps one host per ring
// position; an execution claims one host per participant exclusively, so
// two placed executions never share a host.  What happens BETWEEN hosts
// depends on the configured fabric:
//
//  * kStarExclusive — one full-duplex access link per host into a
//    non-blocking switch.  Every flow crosses exactly its endpoints'
//    access links, so host exclusivity makes timing each execution's steps
//    on a private quiet FlowNetwork EXACT under max-min fair sharing, not
//    an approximation.
//
//  * kTwoLevelShared — hosts hang off ToR switches whose uplinks into the
//    core are oversubscribed.  Different executions' flows SHARE those
//    uplinks, so the substrate times every in-flight step of every tenant
//    together on ONE elec::SharedFabricTimer: a step's completion time
//    depends on what other tenants are sending, moves when they start
//    (retimings re-schedule the step event on the sim clock), and is
//    re-proven by a flow replay into a network that starts empty, epoch by
//    idle-to-idle epoch.  The quiet-network duration of each step is still
//    computed (StepFlowTimer) as the denominator of the per-job contention
//    slowdown.
//
// One forward run per routing decision.  The congestion-aware probe
// (predict_completion) times the candidate's first step twice: quietly, and
// against the live fabric.  When the router then places that job, its first
// time_step asks for the same two numbers at the same instant.  The quiet
// timer remembers its last flow list and makespan, and the shared fabric
// adopts the probe's forward run while it is fresh (no other step began and
// no session closed since), so neither is run again; both answers are
// bitwise the ones a new run would give.
//
// Schedules are the classic electrical collectives the paper benchmarks
// against: the chunked ring (bandwidth-optimal) or recursive doubling
// (latency-optimal), picked per job by the alpha-beta cost model and written
// once onto the participants' ring ids.  Every execution holds ONE schedule,
// remapped only when the hosts move:
//
//  * the schedule — transfers among the participants' ring ids.  This is
//    what schedule() exposes, what the runtime's composite all-reduce oracle
//    proves, and what the flow timers route while each participant sits on
//    the host at its own ring position.  A resume keeps its tail, so an
//    executed prefix and a rebuilt remainder always compose.
//  * a physical copy — the same steps pushed through a participant→host map
//    — exists only while the claimed hosts differ from the participants.
//
// The two differ only after a REMAPPED RESUME: BSP step boundaries are
// preemption points, a suspended execution surrenders its hosts, and a
// kResume renegotiation re-places the remainder on whatever host set is free
// then — the original positions when available (no copy), else any free
// hosts, carried over by the same remap placement uses.  Host fungibility is
// also the fault story: the substrate keeps its own host-down refcounts (node
// and ToR faults), a dead host is quarantined the moment it is free, and the
// resume simply remaps around it, so electrical node faults cost a suspension,
// never data.  A ToR loss additionally asks the runtime to migrate the
// execution to another fabric.  The shared fabric's replay oracle covers
// remapped resumes for free: it replays the logged physical routes, which
// are exactly what the remapped remainder injected.
//
// Per-step timing is produced one step at a time so electrical steps
// interleave with optical tenants' events on the shared clock.
#include "runtime/substrate.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "coll/algorithms.hpp"
#include "coll/cost_model.hpp"
#include "elec/alphabeta.hpp"
#include "elec/schedule_runner.hpp"
#include "elec/shared_fabric.hpp"
#include "util/check.hpp"

namespace wrht::runtime {

namespace {

/// Rewrite `schedule` through `hosts` (node n moves to hosts[n]) inside a
/// `num_hosts`-wide id space: compact ranks 0..k-1 onto the participants at
/// placement, participants onto their claimed hosts after a remapped resume.
/// Chunk structure is untouched, so payload splitting and functional
/// semantics carry over.
coll::Schedule remap_onto_hosts(const coll::Schedule& schedule,
                                const std::vector<topo::NodeId>& hosts,
                                std::uint32_t num_hosts) {
  coll::Schedule mapped(schedule.name(), num_hosts, schedule.num_chunks());
  for (const coll::Step& step : schedule.steps()) {
    mapped.add_step();
    for (const coll::Transfer& t : step.transfers) {
      coll::Transfer placed = t;
      placed.src = hosts[t.src];
      placed.dst = hosts[t.dst];
      mapped.add_transfer(placed);
    }
  }
  return mapped;
}

/// The steps still ahead after `steps_done` executed ones — the electrical
/// remainder rebuild (no level restructuring to do: a BSP flow schedule's
/// remainder is literally its tail).
coll::Schedule schedule_tail(const coll::Schedule& schedule,
                             std::size_t steps_done) {
  coll::Schedule tail(schedule.name(), schedule.num_nodes(),
                      schedule.num_chunks());
  const std::vector<coll::Step>& steps = schedule.steps();
  for (std::size_t s = steps_done; s < steps.size(); ++s) {
    tail.add_step();
    for (const coll::Transfer& t : steps[s].transfers) {
      tail.add_transfer(t);
    }
  }
  return tail;
}

class ElectricalExecution final : public SubstrateExecution {
 public:
  [[nodiscard]] const coll::Schedule& schedule() const override {
    return functional_;
  }
  /// Electrical grants are host links, not spectrum; the invalid band tells
  /// records/traces "no band held".
  [[nodiscard]] WavelengthBand band() const override { return {}; }
  [[nodiscard]] std::vector<topo::NodeId> hosts() const override {
    return hosts_;
  }

  /// What the flow timers route: the schedule itself while every
  /// participant sits on its own host, else its remap onto hosts_.
  [[nodiscard]] const coll::Schedule& routes() const {
    return physical_ ? *physical_ : functional_;
  }

  /// Remaining steps among participant ring ids — what the composite
  /// all-reduce oracle proves; stable across host remaps, so a resume
  /// keeps its tail.
  coll::Schedule functional_;
  /// The same steps among the claimed hosts; engaged only when the hosts
  /// differ from the participants (after a remapped resume).
  std::optional<coll::Schedule> physical_;
  util::Bytes payload;
  std::vector<topo::NodeId> participants;
  /// hosts_[i] carries participants[i]'s data (identity at first placement,
  /// possibly remapped after a resume).
  std::vector<topo::NodeId> hosts_;
  bool holds_hosts = false;
  /// kTwoLevelShared: the execution's session on the shared fabric timer.
  elec::SharedFabricTimer::SessionId session = 0;
  bool has_session = false;
  /// A ToR fault orphaned this execution since its last step boundary.
  bool orphaned = false;
};

elec::ElectricalCluster make_fallback_cluster(
    std::uint32_t num_hosts, const ElectricalFallbackConfig& config) {
  if (config.fabric == ElectricalFabric::kStarExclusive) {
    return elec::ElectricalCluster::star(num_hosts, config.link);
  }
  std::optional<elec::ElectricalCluster> tree =
      elec::ElectricalCluster::two_level_tree(num_hosts, config.hosts_per_tor,
                                              config.oversubscription,
                                              config.link);
  WRHT_REQUIRE(tree.has_value(),
               "make_electrical_substrate: bad two-level shape ("
                   << num_hosts << " hosts, " << config.hosts_per_tor
                   << " per ToR, oversubscription " << config.oversubscription
                   << ")");
  return *std::move(tree);
}

class ElectricalSubstrate final : public ExecutionSubstrate {
 public:
  ElectricalSubstrate(std::uint32_t num_hosts,
                      const ElectricalFallbackConfig& config)
      : cluster_(make_fallback_cluster(num_hosts, config)),
        timer_(cluster_),
        config_(config),
        host_busy_(num_hosts, false),
        host_down_(num_hosts, 0),
        quarantined_(num_hosts, false) {
    if (config_.fabric == ElectricalFabric::kTwoLevelShared) {
      shared_.emplace(cluster_, config_.replay_audit);
    }
  }

  [[nodiscard]] SubstrateKind kind() const override {
    return SubstrateKind::kElectrical;
  }

  [[nodiscard]] std::uint32_t largest_free_grant() const override {
    // A unit of capacity exists only when BOTH gates could pass: a
    // concurrency slot and at least one free host link.
    if (!slots_available()) return 0;
    const bool any_host_free =
        std::find(host_busy_.begin(), host_busy_.end(), false) !=
        host_busy_.end();
    return any_host_free ? 1u : 0u;
  }
  [[nodiscard]] std::uint32_t free_grant_total() const override {
    if (!slots_available()) return 0;
    std::uint32_t free = 0;
    for (const bool busy : host_busy_) free += busy ? 0u : 1u;
    return free;
  }

  [[nodiscard]] bool can_place(const std::vector<topo::NodeId>& participants,
                               std::uint32_t) const override {
    if (!slots_available()) return false;
    return std::none_of(
        participants.begin(), participants.end(),
        [this](topo::NodeId host) { return host_busy_[host]; });
  }

  [[nodiscard]] std::unique_ptr<SubstrateExecution> place(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t) override {
    WRHT_CHECK(can_place(participants, 1),
               "ElectricalSubstrate: placement on busy hosts — "
               "arbitration bug");
    // First placement claims hosts 1:1 at the participants' ring positions,
    // so the schedule routes as it stands.
    return make_plan(best_schedule(participants, payload), participants,
                     participants, payload);
  }

  [[nodiscard]] StepTiming time_step(SubstrateExecution& e, std::size_t step,
                                     util::Seconds now) override {
    auto& exec = static_cast<ElectricalExecution&>(e);
    StepTiming out;
    // Quiet-network BSP duration, same construction as
    // elec::run_on_electrical: the step's flow makespan on a private reset
    // network (route latency included).  On the star this IS the step —
    // host exclusivity means nobody else's flows exist on its links.  On
    // the shared fabric it is the contention-free baseline the slowdown is
    // measured against.  Timed on the routes actually flown: after a
    // remapped resume the quiet baseline belongs to the physical copy.
    const std::optional<util::Seconds> quiet =
        timer_.time_step(exec.routes(), step, exec.payload);
    WRHT_CHECK(quiet.has_value(),
               "ElectricalSubstrate: un-timeable step " << step
                                                        << " — arbitration "
                                                           "bug");
    out.quiet = *quiet;
    if (!shared_) {
      out.end = now + *quiet;
      return out;
    }
    const std::optional<util::Seconds> end =
        shared_->begin_step(exec.session, exec.routes(), step, exec.payload,
                            now);
    WRHT_CHECK(end.has_value(),
               "ElectricalSubstrate: shared fabric refused step "
                   << step << " — arbitration bug");
    out.end = *end;
    for (const elec::SharedFabricTimer::Retiming& retiming :
         shared_->take_retimings()) {
      pending_retimings_.push_back(
          StepRetiming{session_plans_.at(retiming.session), retiming.end});
    }
    return out;
  }

  void release(SubstrateExecution& e, util::Seconds now) override {
    auto& exec = static_cast<ElectricalExecution&>(e);
    if (!exec.holds_hosts) return;
    if (exec.has_session) {
      shared_->close_session(exec.session, now);
      session_plans_.erase(exec.session);
      exec.has_session = false;
    }
    for (const topo::NodeId host : exec.hosts_) host_busy_[host] = false;
    exec.holds_hosts = false;
    --active_;
    quarantine_freed();
  }

  [[nodiscard]] RenegotiationOutcome renegotiate(
      SubstrateExecution* current,
      const RenegotiationRequest& request) override {
    switch (request.kind) {
      case RenegotiationRequest::Kind::kResume:
        return resume(static_cast<const ElectricalExecution&>(*current),
                      request);
      case RenegotiationRequest::Kind::kRestart:
        return restart(request);
      case RenegotiationRequest::Kind::kGrow:
      case RenegotiationRequest::Kind::kShrink:
      case RenegotiationRequest::Kind::kEvict:
        // Grants are exactly one host per participant, so there is no wider
        // or narrower grant to rebuild toward, and an evicted participant's partial sums live in its host's
        // memory — there is no narrower remainder to rebuild in place.  The
        // runtime falls back to kRestart among the survivors.
        return {};
    }
    return {};
  }

  [[nodiscard]] bool contends(const QueueEntry& entry) const override {
    // Only pinned tenants: a kAny waiter also has the optical line working
    // for it, and host claims it could get by preemption are claims the
    // optical path never needed.
    return !entry.held && entry.pin == SubstratePin::kElectricalOnly;
  }
  [[nodiscard]] bool accepts(SubstratePin pin) const override {
    return pin != SubstratePin::kOpticalOnly;
  }

  [[nodiscard]] std::vector<std::size_t> preemption_victims(
      const PreemptionWaiter& waiter,
      const std::vector<PreemptionCandidate>& running) const override {
    const auto hosts = [&running](std::size_t i) -> const auto& {
      return static_cast<const ElectricalExecution*>(running[i].plan)->hosts_;
    };
    // Cheapest first: lowest priority, then by surrendered host count
    // (`fewer` picks the direction), then oldest lead job for determinism.
    const auto cheaper = [&](std::size_t a, std::size_t b, bool fewer) {
      if (running[a].priority != running[b].priority) {
        return running[a].priority < running[b].priority;
      }
      if (hosts(a).size() != hosts(b).size()) {
        return fewer == (hosts(a).size() < hosts(b).size());
      }
      return running[a].lead < running[b].lead;
    };
    if (waiter.queued) {
      // A queued waiter needs ITS OWN ring positions' hosts.
      if (can_place(*waiter.participants, 1)) return {};
      // Every holder of a busy host must be outranked by the waiter, or
      // preemption cannot help at all.  Holders already surrendering mean
      // the request is in flight: marking unrelated tenants would only
      // cascade collateral suspensions that free nothing the waiter can use.
      std::vector<std::size_t> blockers;
      bool any_busy_holder = false;
      for (const topo::NodeId host : *waiter.participants) {
        for (std::size_t i = 0; i < running.size(); ++i) {
          if (std::find(hosts(i).begin(), hosts(i).end(), host) ==
              hosts(i).end()) {
            continue;
          }
          any_busy_holder = true;
          if (!running[i].outranked) return {};  // hopeless
          if (!running[i].surrendering &&
              std::find(blockers.begin(), blockers.end(), i) ==
                  blockers.end()) {
            blockers.push_back(i);
          }
          break;  // hosts are exclusive; one holder per host
        }
      }
      if (any_busy_holder) return blockers;
      // No busy host blocks the waiter, yet it does not fit: the
      // concurrency cap is the bottleneck, and one victim frees a slot.
      std::optional<std::size_t> cheapest;
      for (std::size_t i = 0; i < running.size(); ++i) {
        if (running[i].surrendering || !running[i].outranked) continue;
        if (!cheapest || cheaper(i, *cheapest, /*fewer=*/true)) cheapest = i;
      }
      if (!cheapest) return {};
      return {*cheapest};
    }
    // A suspended waiter resumes on any free host set of its size (a
    // remapped resume), so free hosts anywhere count: accumulate
    // surrendered host sets, largest first so one victim usually suffices.
    const std::size_t need = waiter.participants->size();
    std::size_t pending = free_grant_total();
    std::vector<std::size_t> victims;
    for (std::size_t i = 0; i < running.size(); ++i) {
      if (running[i].surrendering) {
        pending += hosts(i).size();
      } else if (running[i].outranked) {
        victims.push_back(i);
      }
    }
    if (pending >= need) return {};
    std::sort(victims.begin(), victims.end(),
              [&](std::size_t a, std::size_t b) {
                return cheaper(a, b, /*fewer=*/false);
              });
    std::size_t taken = 0;
    while (taken < victims.size() && pending < need) {
      pending += hosts(victims[taken++]).size();
    }
    victims.resize(taken);
    return victims;
  }

  void fail(const FaultSpec& fault) override {
    for_each_host(fault, [this](topo::NodeId host) {
      if (host_down_[host]++ == 0) ++hosts_down_;
    });
    quarantine_freed();
  }

  void repair(const FaultSpec& fault) override {
    for_each_host(fault, [this](topo::NodeId host) {
      WRHT_CHECK(host_down_[host] > 0,
                 "ElectricalSubstrate: repair without a fault");
      if (--host_down_[host] != 0) return;
      --hosts_down_;
      if (quarantined_[host]) {
        quarantined_[host] = false;
        host_busy_[host] = false;
      }
    });
  }

  [[nodiscard]] std::vector<topo::NodeId> down_among(
      const std::vector<topo::NodeId>&) const override {
    return {};  // hosts checkpoint at BSP boundaries: a remap, never data
  }

  [[nodiscard]] bool disrupts(SubstrateExecution& plan,
                              const std::vector<topo::NodeId>&,
                              const FaultSpec& fault) override {
    if (fault.domain != FaultDomain::kNode &&
        fault.domain != FaultDomain::kTor) {
      return false;
    }
    auto& exec = static_cast<ElectricalExecution&>(plan);
    if (!any_host_down(exec)) return false;
    exec.orphaned = exec.orphaned || fault.domain == FaultDomain::kTor;
    return true;
  }

  [[nodiscard]] FaultRemedy remedy(SubstrateExecution& plan,
                                   const std::vector<topo::NodeId>&,
                                   std::uint32_t) override {
    auto& exec = static_cast<ElectricalExecution&>(plan);
    const bool orphaned = std::exchange(exec.orphaned, false);
    FaultRemedy out;
    if (!any_host_down(exec)) return out;  // the repair beat the boundary
    // A ToR loss took a whole host group down while the other fabric may be
    // untouched: migrate.  A node fault costs a remap at resume: suspend.
    out.kind = orphaned ? FaultRemedy::Kind::kMigrate
                        : FaultRemedy::Kind::kSuspend;
    return out;
  }

  [[nodiscard]] std::vector<StepRetiming> take_retimings() override {
    std::vector<StepRetiming> out = std::move(pending_retimings_);
    pending_retimings_.clear();
    return out;
  }

  [[nodiscard]] std::vector<double> link_peak_utilization() const override {
    return shared_ ? shared_->link_peak_utilization()
                   : std::vector<double>{};
  }

  void attach_metrics(obs::MetricsRegistry& registry) override {
    if (shared_) shared_->attach_metrics(registry);
  }

  [[nodiscard]] std::uint64_t self_check() const override {
    if (!shared_) return 0;
    const std::uint64_t mismatches = shared_->verify_replay();
    // The incremental shared-fabric timing and the epoch flow replay
    // disagree: a timing bug, fatal like a wavelength conflict.
    WRHT_CHECK(mismatches == 0,
               "ElectricalSubstrate: flow-replay oracle disagrees on "
                   << mismatches << " step(s)");
    return shared_->checked_steps();
  }

  [[nodiscard]] util::Seconds predict_makespan(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t) const override {
    // The alpha-beta analytic cost of the schedule this substrate would
    // run.  On the patterns schedule_for picks (ring steps, pairwise
    // exchanges) the flow simulation and the analytic model agree exactly,
    // so this is a faithful prediction, not a bound.  Quiet routing re-asks
    // this for every queued candidate on every event, and the answer
    // depends only on (rank count, payload) for a fixed cluster — memoized
    // so the O(k^2)-transfer schedule is not rebuilt each time.
    const auto k = static_cast<std::uint32_t>(participants.size());
    const std::pair<std::uint32_t, std::uint64_t> key{k, payload.count()};
    const auto cached = prediction_cache_.find(key);
    if (cached != prediction_cache_.end()) return cached->second;
    const util::Seconds predicted = best_compact_schedule(k, payload).cost;
    // Payloads are continuous draws, so the memo would gain about one entry
    // per routed job and keep it forever.  The keys asked again are the few
    // candidates queued right now, so a full memo simply starts over.
    if (prediction_cache_.size() >= kPredictionCacheCap) {
      prediction_cache_.clear();
    }
    prediction_cache_.emplace(key, predicted);
    return predicted;
  }

  [[nodiscard]] util::Seconds predict_completion(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant, util::Seconds now) const override {
    // Fold the live fabric state into the quiet alpha-beta prediction.  On
    // the exclusive star there is nothing to fold (host exclusivity makes
    // quiet timing exact); on the shared tree, probe the first step's flows
    // against the residual uplink bandwidth the in-flight tenants leave
    // behind and stretch the whole run by the observed contention ratio.
    if (!shared_) return now + predict_makespan(participants, payload, grant);
    // One schedule choice yields both the quiet run time and the routes the
    // probe injects.
    const auto k = static_cast<std::uint32_t>(participants.size());
    const CompactChoice best = best_compact_schedule(k, payload);
    const util::Seconds quiet = best.cost;
    const coll::Schedule routes =
        remap_onto_hosts(best.schedule, participants, cluster_.num_hosts());
    const std::optional<util::Seconds> quiet_step =
        timer_.time_step(routes, 0, payload);
    const std::optional<util::Seconds> busy_end =
        shared_->predict_step_completion(routes, 0, payload, now);
    if (!quiet_step || !busy_end || quiet_step->value() <= 0.0) {
      return now + quiet;
    }
    const double probe_ratio =
        std::max(1.0, (*busy_end - now).value() / quiet_step->value());
    // Drain forecast: the probe's stretch assumes today's contenders stay
    // for the candidate's WHOLE run, but an in-flight step predicted to end
    // at e contends only for the overlap min(e - now, quiet)/quiet of it.
    // Decay the stretch by the mean overlap fraction across the in-flight
    // steps — a fabric full of nearly-done tenants stops repelling arrivals
    // it could serve, which was the second routing-error residual the
    // report quantified.  New arrivals during the run remain unmodeled;
    // the routing report keeps scoring that residual per decision.
    double ratio = probe_ratio;
    if (probe_ratio > 1.0) {
      const std::vector<util::Seconds> ends =
          shared_->inflight_predicted_ends();
      if (!ends.empty() && quiet.value() > 0.0) {
        double overlap_sum = 0.0;
        for (const util::Seconds end : ends) {
          overlap_sum +=
              std::clamp((end - now).value() / quiet.value(), 0.0, 1.0);
        }
        const double overlap =
            overlap_sum / static_cast<double>(ends.size());
        ratio = 1.0 + (probe_ratio - 1.0) * overlap;
      }
    }
    return now + util::Seconds(quiet.value() * ratio);
  }

 private:
  [[nodiscard]] bool slots_available() const {
    return config_.max_concurrent == 0 || active_ < config_.max_concurrent;
  }

  /// A baseline all-reduce among compact ranks 0..k-1 and its alpha-beta
  /// run time under this cluster's parameters.
  struct CompactChoice {
    coll::Schedule schedule;
    util::Seconds cost;
  };

  /// Cheapest of the baseline all-reduces for k ranks under this cluster's
  /// alpha-beta parameters: chunked ring (bandwidth-optimal) vs recursive
  /// doubling (latency-optimal; only a candidate at power-of-two k, where
  /// it needs no fold/unfold steps).
  [[nodiscard]] CompactChoice best_compact_schedule(std::uint32_t k,
                                                    util::Bytes payload) const {
    const coll::AlphaBetaParams ab = elec::alpha_beta_for(cluster_);
    CompactChoice ring{coll::ring_allreduce(k), {}};
    ring.cost = coll::alpha_beta_cost(ring.schedule, payload, ab).total;
    if ((k & (k - 1)) != 0) return ring;
    CompactChoice doubling{coll::recursive_doubling(k), {}};
    doubling.cost = coll::alpha_beta_cost(doubling.schedule, payload, ab).total;
    return doubling.cost < ring.cost ? std::move(doubling) : std::move(ring);
  }

  /// best_compact_schedule for `participants`, written onto their ring ids.
  [[nodiscard]] coll::Schedule best_schedule(
      const std::vector<topo::NodeId>& participants,
      util::Bytes payload) const {
    return remap_onto_hosts(
        best_compact_schedule(static_cast<std::uint32_t>(participants.size()),
                              payload)
            .schedule,
        participants, cluster_.num_hosts());
  }

  /// kResume: re-place a suspended remainder.  Grant widths are meaningless
  /// here — the remainder needs exactly one host per participant — and the
  /// participant set never shrinks (hosts checkpoint at BSP boundaries, so
  /// a node fault costs a remap, not data; request.nodes is ignored).
  /// Preference order: the original ring positions when all free (physical
  /// == functional again), else the lowest-id free hosts (deterministic),
  /// carried by the schedule remap.
  [[nodiscard]] RenegotiationOutcome resume(
      const ElectricalExecution& current,
      const RenegotiationRequest& request) {
    if (!slots_available()) return {};
    const std::optional<std::vector<topo::NodeId>> hosts =
        pick_hosts(current.participants);
    if (!hosts) return {};
    return {make_plan(schedule_tail(current.functional_, request.steps_done),
                      *hosts, current.participants, current.payload)};
  }

  /// kRestart: a brand-new plan among request.nodes carrying
  /// request.payload — the landing half of a cross-substrate migration, or
  /// a survivor restart after an eviction the remainder could not absorb.
  [[nodiscard]] RenegotiationOutcome restart(
      const RenegotiationRequest& request) {
    if (!slots_available() || request.nodes.size() < 2) return {};
    const std::optional<std::vector<topo::NodeId>> hosts =
        pick_hosts(request.nodes);
    if (!hosts) return {};
    return {make_plan(best_schedule(request.nodes, request.payload), *hosts,
                      request.nodes, request.payload)};
  }

  /// One free host per participant: the participants' own ring positions
  /// when all free, else the lowest-id free hosts; nullopt when the fabric
  /// cannot seat them all.
  [[nodiscard]] std::optional<std::vector<topo::NodeId>> pick_hosts(
      const std::vector<topo::NodeId>& participants) const {
    if (can_place(participants, 1)) return participants;
    std::vector<topo::NodeId> hosts;
    const std::size_t needed = participants.size();
    for (topo::NodeId h = 0; h < host_busy_.size() && hosts.size() < needed;
         ++h) {
      if (!host_busy_[h]) hosts.push_back(h);
    }
    if (hosts.size() < needed) return std::nullopt;
    return hosts;
  }

  /// The hosts a node or ToR fault takes down (none for other domains).
  template <class Visit>
  void for_each_host(const FaultSpec& fault, Visit visit) const {
    if (fault.domain == FaultDomain::kNode) {
      WRHT_REQUIRE(fault.subject < host_busy_.size(),
                   "ElectricalSubstrate: node subject " << fault.subject
                                                        << " off the fabric");
      visit(fault.subject);
    } else if (fault.domain == FaultDomain::kTor) {
      const std::uint32_t hpt = std::max(1u, config_.hosts_per_tor);
      for (std::uint32_t h = fault.subject * hpt;
           h < (fault.subject + 1) * hpt && h < host_busy_.size(); ++h) {
        visit(h);
      }
    }
  }

  [[nodiscard]] bool any_host_down(const ElectricalExecution& exec) const {
    return hosts_down_ != 0 &&
           std::any_of(exec.hosts_.begin(), exec.hosts_.end(),
                       [this](topo::NodeId h) { return host_down_[h] != 0; });
  }

  /// Take every down host that is free right now out of service (a host
  /// held by a tenant at fault time is quarantined when its holder
  /// releases).
  void quarantine_freed() {
    if (hosts_down_ == 0) return;
    for (std::size_t h = 0; h < host_busy_.size(); ++h) {
      if (host_down_[h] == 0 || quarantined_[h] || host_busy_[h]) continue;
      host_busy_[h] = true;
      quarantined_[h] = true;
    }
  }

  /// Claim `hosts` (which must be free) and build the plan that runs
  /// `schedule` (among `participants`' ring ids) on them.  Shared placement
  /// tail of both place() and renegotiate().
  [[nodiscard]] std::unique_ptr<SubstrateExecution> make_plan(
      coll::Schedule schedule, const std::vector<topo::NodeId>& hosts,
      const std::vector<topo::NodeId>& participants, util::Bytes payload) {
    auto plan = std::make_unique<ElectricalExecution>();
    if (hosts != participants) {
      std::vector<topo::NodeId> host_of(cluster_.num_hosts());
      for (std::size_t i = 0; i < participants.size(); ++i) {
        host_of[participants[i]] = hosts[i];
      }
      plan->physical_ =
          remap_onto_hosts(schedule, host_of, cluster_.num_hosts());
    }
    plan->functional_ = std::move(schedule);
    plan->payload = payload;
    plan->participants = participants;
    plan->hosts_ = hosts;
    plan->holds_hosts = true;
    if (shared_) {
      plan->session = shared_->open_session();
      plan->has_session = true;
      session_plans_[plan->session] = plan.get();
    }
    for (const topo::NodeId host : hosts) host_busy_[host] = true;
    ++active_;
    return plan;
  }

  elec::ElectricalCluster cluster_;
  /// Quiet-network scratch timer (reset per step; remembers the last step it
  /// ran).  Mutable because the const routing probe predict_completion also
  /// needs a quiet baseline.
  mutable elec::StepFlowTimer timer_;
  ElectricalFallbackConfig config_;
  /// Engaged only for kTwoLevelShared.
  std::optional<elec::SharedFabricTimer> shared_;
  std::map<elec::SharedFabricTimer::SessionId, SubstrateExecution*>
      session_plans_;
  std::vector<StepRetiming> pending_retimings_;
  std::vector<bool> host_busy_;
  /// Fault health: down refcounts per host, the number of hosts currently
  /// down (the fault-free fast path), and which hosts are held busy by
  /// quarantine rather than by a tenant.
  std::vector<std::uint8_t> host_down_;
  std::uint32_t hosts_down_ = 0;
  std::vector<bool> quarantined_;
  std::uint32_t active_ = 0;
  /// predict_makespan's memo, at most kPredictionCacheCap entries.
  static constexpr std::size_t kPredictionCacheCap = 256;
  mutable std::map<std::pair<std::uint32_t, std::uint64_t>, util::Seconds>
      prediction_cache_;
};

}  // namespace

const char* electrical_fabric_name(ElectricalFabric fabric) {
  switch (fabric) {
    case ElectricalFabric::kStarExclusive:
      return "star-exclusive";
    case ElectricalFabric::kTwoLevelShared:
      return "two-level-shared";
  }
  return "?";
}

std::unique_ptr<ExecutionSubstrate> make_electrical_substrate(
    std::uint32_t num_hosts, const ElectricalFallbackConfig& config) {
  return std::make_unique<ElectricalSubstrate>(num_hosts, config);
}

}  // namespace wrht::runtime
