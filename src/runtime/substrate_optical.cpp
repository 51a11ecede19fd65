// The WDM-ring execution substrate: everything wavelength-shaped the
// runtime used to do inline lives here now.  Grants are contiguous spectrum
// bands from the SpectrumArbiter; plans are Wrht builds sized to the band
// and shifted into place; per-step timing claims every (span, wavelength,
// direction) cell on the shared SpectrumMap (a failed claim is an
// arbitration bug and aborts, same fatal semantics as the single-job DES)
// and schedules the release events on the shared clock.  Renegotiation — one
// typed renegotiate() entry point covering resume, grow, shrink, fault
// eviction, and restart — rebuilds the not-yet-run remainder through
// core::rebuild_wrht_remainder_evicting and transacts the band on the
// arbiter, with rollback when a rebuild does not pay off.  The substrate
// owns its fault health: transceiver and node faults take ring positions
// out of service (survivor rebuilds route around them), and degraded
// wavelengths are quarantined as width-1 arbiter allocations the moment
// they are free, so neither the planner nor first-fit can grant them until
// repair.
#include "runtime/substrate.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "optical/network.hpp"
#include "optical/spectrum.hpp"
#include "optical/transceiver.hpp"
#include "runtime/arbiter.hpp"
#include "runtime/planner.hpp"
#include "wrht/builder.hpp"
#include "wrht/executor.hpp"
#include "wrht/time_model.hpp"

namespace wrht::runtime {

namespace {

class OpticalExecution final : public SubstrateExecution {
 public:
  [[nodiscard]] const coll::Schedule& schedule() const override {
    return build.annotated.schedule;
  }
  [[nodiscard]] WavelengthBand band() const override { return band_; }

  core::WrhtBuild build;
  WavelengthBand band_;
  /// False once the band went back to the arbiter (suspension) or moved to
  /// a successor plan (resize) — the double-release guard.
  bool holds_band = false;
  util::Bytes payload;
  std::vector<std::vector<optical::TimedTransfer>> timed_steps;
  /// When this band is expected back: refreshed after every timed step by
  /// extrapolating the remaining steps at the step's own pace.  Zero until
  /// the first step is timed (a just-placed band; treated as releasing
  /// soonest by the queue-wait estimate).  Feeds predict_completion's
  /// spectrum-backlog estimate.
  util::Seconds predicted_end{0.0};
  /// Position in the substrate's outstanding_ registry, so deregistration
  /// is a swap-remove instead of a linear scan (kept in sync by forget()).
  std::size_t outstanding_index = 0;
};

class OpticalSubstrate final : public ExecutionSubstrate {
 public:
  OpticalSubstrate(const topo::RingTopology& ring,
                   const optical::OpticalParams& params, sim::Simulator& sim,
                   bool flat_hot_path, SpectrumPolicy spectrum_policy)
      : ring_(ring),
        params_(params),
        sim_(sim),
        flat_(flat_hot_path),
        policy_(spectrum_policy),
        spectrum_(ring, params.wdm.num_wavelengths),
        transceivers_(ring.num_nodes()),
        arbiter_(params.wdm.num_wavelengths, flat_hot_path),
        node_down_(ring.num_nodes(), 0),
        wavelength_down_(params.wdm.num_wavelengths, 0),
        quarantined_(params.wdm.num_wavelengths, false) {}

  [[nodiscard]] SubstrateKind kind() const override {
    return SubstrateKind::kOptical;
  }

  void attach_metrics(obs::MetricsRegistry& registry) override {
    arbiter_.attach_metrics(registry);
    retunes_ = registry.counter("optical.retunes");
    reservations_ = registry.counter("optical.cell_reservations");
  }

  [[nodiscard]] std::uint32_t largest_free_grant() const override {
    return arbiter_.largest_free_block();
  }
  [[nodiscard]] std::uint32_t free_grant_total() const override {
    return arbiter_.free_total();
  }

  [[nodiscard]] bool can_place(const std::vector<topo::NodeId>&,
                               std::uint32_t min_grant) const override {
    return arbiter_.largest_free_block() >= min_grant;
  }

  void note_pending_demand(
      const std::vector<std::uint32_t>& min_grants) override {
    pending_widths_ = min_grants;
  }

  [[nodiscard]] std::unique_ptr<SubstrateExecution> place(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant) override {
    const std::optional<WavelengthBand> band = acquire_band(grant);
    // Admission promised a free run of this width; not finding one is an
    // arbiter/admission disagreement.
    WRHT_CHECK(band.has_value(),
               "OpticalSubstrate: arbiter refused a " << grant << "-band");
    return make_plan(build_among(participants, band->width), *band,
                     payload);
  }

  [[nodiscard]] StepTiming time_step(SubstrateExecution& e, std::size_t step,
                                     util::Seconds now) override {
    auto& exec = static_cast<OpticalExecution&>(e);
    const std::vector<optical::TimedTransfer>& transfers =
        exec.timed_steps[step];
    StepTiming out;

    // Claim the step's spectrum cells on the SHARED map.  Bands are
    // disjoint, so a failed claim means the arbitration above is broken.
    for (const optical::TimedTransfer& t : transfers) {
      for (const optical::WavelengthId lambda : t.lambdas) {
        WRHT_CHECK(spectrum_.try_reserve(t.arc, lambda),
                   "OpticalSubstrate: wavelength conflict on lambda "
                       << lambda << " — arbitration bug");
        ++out.reservations;
      }
    }

    util::Seconds step_end = now;
    for (const optical::TimedTransfer& t : transfers) {
      const optical::WavelengthId primary = t.lambdas.front();
      bool retuned = transceivers_.retune_tx(t.src, t.arc.direction, primary);
      retuned |= transceivers_.retune_rx(t.dst, t.arc.direction, primary);
      if (params_.retune_every_step) retuned = true;
      if (retuned) ++out.retunes;

      const util::Seconds finish =
          now + optical::transfer_cost(params_, t, retuned);
      step_end = std::max(step_end, finish);
      if (!flat_) {
        sim_.schedule_at(finish, [this, arc = t.arc, lambdas = t.lambdas] {
          for (const optical::WavelengthId lambda : lambdas) {
            spectrum_.release(arc, lambda);
          }
        });
      }
    }
    if (flat_) {
      // One release event for the whole step instead of one per transfer.
      // Equivalent: the cells belong to this band alone (bands are
      // disjoint), and the only parties that could re-reserve them — this
      // execution's next step, or a successor band after a resize — act at
      // the step boundary (>= step_end + sync), which pops after this
      // event.  The captured pointer into the plan's timed_steps outlives
      // the event: the plan is destroyed no earlier than the step-boundary
      // event, which was scheduled after this one (so at an equal timestamp
      // this release still fires first).
      sim_.schedule_at(step_end, [this, step_transfers = &transfers] {
        for (const optical::TimedTransfer& t : *step_transfers) {
          for (const optical::WavelengthId lambda : t.lambdas) {
            spectrum_.release(t.arc, lambda);
          }
        }
      });
    }
    out.end = step_end + params_.sync_time;
    obs::inc(retunes_, out.retunes);
    obs::inc(reservations_, out.reservations);
    // Backlog bookkeeping: the band comes back roughly `remaining steps at
    // this step's pace` from now.  Wrht steps of one execution are close
    // enough in duration for a queue-wait ESTIMATE, and the figure is
    // refreshed every step, so it converges as the execution drains.
    const double step_span = (out.end - now).value();
    const double remaining =
        static_cast<double>(exec.timed_steps.size() - step - 1);
    exec.predicted_end = out.end + util::Seconds(step_span * remaining);
    return out;
  }

  void release(SubstrateExecution& e, util::Seconds /*now*/) override {
    auto& exec = static_cast<OpticalExecution&>(e);
    if (!exec.holds_band) return;
    arbiter_.release(exec.band_);
    exec.holds_band = false;
    forget(exec);
    quarantine_freed();
    // exec.band_ keeps its value: the pre-suspension width is the resume
    // path's sizing hint.
  }

  [[nodiscard]] util::Seconds predict_makespan(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant) const override {
    core::WrhtParams wrht;
    wrht.num_wavelengths = std::max(grant, 1u);
    return core::wrht_time_formula(
        static_cast<std::uint32_t>(participants.size()), payload, params_,
        wrht);
  }

  [[nodiscard]] util::Seconds predict_completion(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant, util::Seconds now) const override {
    // Run time plus the predicted wait for a band.  Under the planner
    // policy the wait is SpectrumPlanner::earliest_fit — the first instant
    // a CONTIGUOUS run of the width exists when outstanding bands release
    // at their predicted ends — so a fragmented pool whose free TOTAL
    // covers the request no longer reads as "available now".  The first-fit
    // ablation keeps the historical estimate (largest-free-block point
    // check, then a contiguity-blind credit walk over the free total) so
    // its measured routing error stays the documented baseline.
    const util::Seconds run = predict_makespan(participants, payload, grant);
    const std::uint32_t width = std::max(grant, 1u);
    if (policy_ == SpectrumPolicy::kPlanner) {
      const util::Seconds start =
          SpectrumPlanner::earliest_fit(width, planner_context(now));
      return start + run;
    }
    if (arbiter_.largest_free_block() >= width) return now + run;
    std::vector<std::pair<util::Seconds, std::uint32_t>> releases;
    releases.reserve(outstanding_.size());
    for (const OpticalExecution* exec : outstanding_) {
      releases.emplace_back(std::max(exec->predicted_end, now),
                            exec->band_.width);
    }
    std::sort(releases.begin(), releases.end());
    std::uint32_t free = arbiter_.free_total();
    util::Seconds wait{0.0};
    for (const auto& [end, released] : releases) {
      wait = end - now;
      free += released;
      if (free >= width) break;
    }
    return now + wait + run;
  }

  [[nodiscard]] RenegotiationOutcome renegotiate(
      SubstrateExecution* c, const RenegotiationRequest& request) override {
    switch (request.kind) {
      case RenegotiationRequest::Kind::kResume:
        return resume(static_cast<OpticalExecution&>(*c), request);
      case RenegotiationRequest::Kind::kGrow:
        return grow(static_cast<OpticalExecution&>(*c), request);
      case RenegotiationRequest::Kind::kShrink:
        return shrink(static_cast<OpticalExecution&>(*c), request);
      case RenegotiationRequest::Kind::kEvict:
        return evict(static_cast<OpticalExecution&>(*c), request);
      case RenegotiationRequest::Kind::kRestart:
        // Reads nothing from `c` — the fresh plan may replace one owned by
        // another substrate (cross-substrate migration).
        return restart(request);
    }
    return {};
  }

  [[nodiscard]] std::uint32_t free_grant_if_kept(
      const SubstrateExecution& e, std::uint32_t keep) const override {
    const auto& exec = static_cast<const OpticalExecution&>(e);
    const WavelengthBand band = exec.band_;
    const WavelengthBand freed{band.base + keep, band.width - keep};
    return arbiter_.largest_free_block_assuming(freed);
  }

  [[nodiscard]] bool contends(const QueueEntry& entry) const override {
    return optically_eligible(entry);
  }
  [[nodiscard]] bool accepts(SubstratePin pin) const override {
    return pin != SubstratePin::kElectricalOnly;
  }

  [[nodiscard]] std::vector<std::size_t> preemption_victims(
      const PreemptionWaiter& waiter,
      const std::vector<PreemptionCandidate>& running) const override {
    // Spectrum usable today plus bands already being surrendered at the
    // next boundary.  Admission needs a CONTIGUOUS run, so the baseline is
    // the largest free block, not the free total — a fragmented pool that
    // sums to the minimum admits nothing.  Adding victim widths is still
    // approximate (their bands may not abut the free runs); both error
    // directions self-correct: under-preemption retries on the next
    // admission pass, and a victim whose suspension became unnecessary is
    // reprieved by the runtime's boundary re-check.
    std::uint32_t pending = arbiter_.largest_free_block();
    std::vector<std::size_t> victims;
    for (std::size_t i = 0; i < running.size(); ++i) {
      if (running[i].surrendering) {
        pending += running[i].plan->band().width;
      } else if (running[i].outranked) {
        victims.push_back(i);
      }
    }
    if (pending >= waiter.min_grant) return {};
    // Cheapest first: lowest priority, then widest band so one victim
    // usually suffices, then oldest lead job for determinism.
    std::sort(victims.begin(), victims.end(),
              [&running](std::size_t a, std::size_t b) {
                const PreemptionCandidate& x = running[a];
                const PreemptionCandidate& y = running[b];
                if (x.priority != y.priority) return x.priority < y.priority;
                if (x.plan->band().width != y.plan->band().width) {
                  return x.plan->band().width > y.plan->band().width;
                }
                return x.lead < y.lead;
              });
    std::size_t taken = 0;
    while (taken < victims.size() && pending < waiter.min_grant) {
      pending += running[victims[taken++]].plan->band().width;
    }
    victims.resize(taken);
    return victims;
  }

  void fail(const FaultSpec& fault) override {
    if (fault.domain == FaultDomain::kTransceiver ||
        fault.domain == FaultDomain::kNode) {
      WRHT_REQUIRE(fault.subject < node_down_.size(),
                   "OpticalSubstrate: fault subject " << fault.subject
                                                      << " off the ring");
      if (node_down_[fault.subject]++ == 0) ++nodes_down_;
    } else if (fault.domain == FaultDomain::kWavelength) {
      WRHT_REQUIRE(fault.subject < wavelength_down_.size(),
                   "OpticalSubstrate: wavelength subject "
                       << fault.subject << " off the spectrum");
      if (wavelength_down_[fault.subject]++ == 0) ++wavelengths_down_;
      quarantine_freed();
    }
  }

  void repair(const FaultSpec& fault) override {
    const auto lower = [](std::uint8_t& count, std::uint32_t& distinct) {
      WRHT_CHECK(count > 0, "OpticalSubstrate: repair without a fault");
      if (--count == 0) --distinct;
    };
    if (fault.domain == FaultDomain::kTransceiver ||
        fault.domain == FaultDomain::kNode) {
      lower(node_down_[fault.subject], nodes_down_);
    } else if (fault.domain == FaultDomain::kWavelength) {
      lower(wavelength_down_[fault.subject], wavelengths_down_);
      if (wavelength_down_[fault.subject] == 0 &&
          quarantined_[fault.subject]) {
        arbiter_.release(WavelengthBand{fault.subject, 1});
        quarantined_[fault.subject] = false;
      }
    }
  }

  [[nodiscard]] std::vector<topo::NodeId> down_among(
      const std::vector<topo::NodeId>& nodes) const override {
    std::vector<topo::NodeId> down;
    if (nodes_down_ == 0) return down;
    for (const topo::NodeId node : nodes) {
      if (node_down_[node] != 0) down.push_back(node);
    }
    return down;
  }

  [[nodiscard]] bool disrupts(SubstrateExecution& plan,
                              const std::vector<topo::NodeId>& recipients,
                              const FaultSpec& fault) override {
    if (fault.domain == FaultDomain::kWavelength) {
      const WavelengthBand band = plan.band();
      return fault.subject >= band.base &&
             fault.subject < band.base + band.width;
    }
    return (fault.domain == FaultDomain::kTransceiver ||
            fault.domain == FaultDomain::kNode) &&
           std::find(recipients.begin(), recipients.end(), fault.subject) !=
               recipients.end();
  }

  [[nodiscard]] FaultRemedy remedy(SubstrateExecution& plan,
                                   const std::vector<topo::NodeId>& recipients,
                                   std::uint32_t min_grant) override {
    FaultRemedy out;
    out.dead = down_among(recipients);
    const WavelengthBand band = plan.band();
    std::uint32_t healthy = 0;  // band-relative index of the first degraded
    while (healthy < band.width &&
           wavelength_down_[band.base + healthy] == 0) {
      ++healthy;
    }
    if (!out.dead.empty()) {
      // Survivors rebuild in place on a healthy band; a degraded band
      // cannot carry the remainder, so they restart on fresh spectrum.
      out.kind = healthy == band.width ? FaultRemedy::Kind::kEvict
                                       : FaultRemedy::Kind::kRestart;
    } else if (healthy < band.width) {
      // Pure degradation: keep the healthy prefix when the floor allows.
      out.kind = healthy >= min_grant ? FaultRemedy::Kind::kShrink
                                      : FaultRemedy::Kind::kSuspend;
      out.keep = healthy;
    }
    return out;
  }

 private:
  [[nodiscard]] RenegotiationOutcome resume(
      const OpticalExecution& current, const RenegotiationRequest& request) {
    const std::uint32_t budget = arbiter_.largest_free_block();
    if (budget < request.min_grant) return {};
    std::uint32_t grant = std::min(request.width, budget);
    std::optional<core::WrhtBuild> rebuilt =
        rebuild_remainder(current, request.steps_done, grant, request.nodes);
    if (!rebuilt && budget > grant) {
      // The remainder's inherited mirrors can need more than the job's
      // admission minimum; retry with everything contiguous on offer.
      grant = budget;
      rebuilt = rebuild_remainder(current, request.steps_done, grant,
                                  request.nodes);
    }
    if (!rebuilt) return {};
    const std::optional<WavelengthBand> band = acquire_band(grant);
    WRHT_CHECK(band.has_value(), "OpticalSubstrate: arbiter refused a "
                                     << grant << "-band on resume");
    return {make_plan(std::move(*rebuilt), *band, current.payload)};
  }

  [[nodiscard]] RenegotiationOutcome grow(OpticalExecution& current,
                                          const RenegotiationRequest& request) {
    const WavelengthBand old = current.band_;
    const WavelengthBand grown = arbiter_.grow(old, request.width);
    if (grown == old) return {};
    const std::size_t remaining = current.num_steps() - request.steps_done;
    std::optional<core::WrhtBuild> rebuilt =
        rebuild_remainder(current, request.steps_done, grown.width);
    // A wider band only pays off by collapsing remaining tree levels (each
    // transfer still rides one wavelength, so same-depth schedules run at
    // the same speed); otherwise give the spectrum straight back.
    if (!rebuilt || rebuilt->annotated.schedule.num_steps() >= remaining) {
      arbiter_.shrink_to(grown, old);
      return {};
    }
    current.holds_band = false;  // the grown band moves to the new plan
    forget(current);
    return {make_plan(std::move(*rebuilt), grown, current.payload)};
  }

  [[nodiscard]] RenegotiationOutcome shrink(
      OpticalExecution& current, const RenegotiationRequest& request) {
    const WavelengthBand old = current.band_;
    std::optional<core::WrhtBuild> rebuilt =
        rebuild_remainder(current, request.steps_done, request.width);
    if (!rebuilt) return {};
    const WavelengthBand kept{old.base, request.width};
    arbiter_.shrink_to(old, kept);
    current.holds_band = false;  // the kept band moves to the new plan
    forget(current);
    quarantine_freed();
    return {make_plan(std::move(*rebuilt), kept, current.payload)};
  }

  /// Survivor rebuild on the SAME band: the remainder is rebuilt with the
  /// failed nodes stripped from its delivery set.  Refused when a failed
  /// node still carries live state (rebuild_wrht_remainder_evicting's
  /// contract) — the caller then restarts among the survivors.
  [[nodiscard]] RenegotiationOutcome evict(
      OpticalExecution& current, const RenegotiationRequest& request) {
    std::optional<core::WrhtBuild> rebuilt = rebuild_remainder(
        current, request.steps_done, current.band_.width, request.nodes);
    if (!rebuilt) return {};
    const WavelengthBand band = current.band_;
    current.holds_band = false;  // the band moves unchanged to the new plan
    forget(current);
    return {make_plan(std::move(*rebuilt), band, current.payload)};
  }

  /// Brand-new plan among request.nodes on a fresh band — the from-scratch
  /// path for survivor restarts and cross-substrate migrations.
  [[nodiscard]] RenegotiationOutcome restart(
      const RenegotiationRequest& request) {
    const std::uint32_t budget = arbiter_.largest_free_block();
    if (budget < request.min_grant) return {};
    const std::uint32_t grant = std::min(std::max(request.width, 1u), budget);
    const std::optional<WavelengthBand> band = acquire_band(grant);
    if (!band) return {};
    return {make_plan(build_among(request.nodes, band->width), *band,
                      request.payload)};
  }

  /// A fresh Wrht build among `participants` that must fit `width`.
  [[nodiscard]] core::WrhtBuild build_among(
      const std::vector<topo::NodeId>& participants,
      std::uint32_t width) const {
    core::WrhtParams wrht;
    wrht.num_wavelengths = width;
    core::WrhtBuild build =
        core::build_wrht_among(participants, ring_.num_nodes(), wrht);
    WRHT_CHECK(build.annotated.wavelengths_required <= width,
               "OpticalSubstrate: schedule overflowed its band ("
                   << build.annotated.wavelengths_required << " > " << width
                   << ")");
    return build;
  }

  /// Take every degraded wavelength that is free right now out of service
  /// (a unit granted to a tenant at fault time is quarantined when its
  /// holder releases or shrinks away from it).
  void quarantine_freed() {
    if (wavelengths_down_ == 0) return;
    for (std::uint32_t w = 0; w < quarantined_.size(); ++w) {
      if (wavelength_down_[w] == 0 || quarantined_[w]) continue;
      quarantined_[w] = arbiter_.allocate_at(w, 1).has_value();
    }
  }

  /// Snapshot of the spectrum the planner scores placements/forecasts
  /// against, as of `now`.
  [[nodiscard]] PlannerContext planner_context(util::Seconds now) const {
    PlannerContext ctx;
    ctx.free_intervals = arbiter_.free_intervals();
    ctx.outstanding.reserve(outstanding_.size());
    for (const OpticalExecution* exec : outstanding_) {
      ctx.outstanding.push_back(
          OutstandingBand{exec->band_, exec->predicted_end});
    }
    ctx.pending_min_widths = pending_widths_;
    ctx.total_wavelengths = arbiter_.total();
    ctx.now = now;
    return ctx;
  }

  /// Claim a `width`-wide band under the active spectrum policy.  The
  /// planner proposes a base scored against outstanding bands and pending
  /// demand; the arbiter still occupancy-checks the exact range (a
  /// collision would be a planner/arbiter disagreement and aborts), so a
  /// planned placement is proven before it exists.
  [[nodiscard]] std::optional<WavelengthBand> acquire_band(
      std::uint32_t width) {
    if (policy_ == SpectrumPolicy::kFirstFit) return arbiter_.allocate(width);
    const std::optional<std::uint32_t> base =
        SpectrumPlanner::choose_base(width, planner_context(sim_.now()));
    if (!base) return std::nullopt;
    const std::optional<WavelengthBand> band =
        arbiter_.allocate_at(*base, width);
    WRHT_CHECK(band.has_value(),
               "OpticalSubstrate: planner placement [" << *base << ", "
                   << *base + width << ") collided with a granted band");
    return band;
  }

  [[nodiscard]] std::optional<core::WrhtBuild> rebuild_remainder(
      const OpticalExecution& exec, std::size_t steps_done,
      std::uint32_t width,
      const std::vector<topo::NodeId>& evicted = {}) const {
    core::WrhtParams wrht;
    wrht.num_wavelengths = width;
    return core::rebuild_wrht_remainder_evicting(exec.build, steps_done,
                                                 evicted, ring_.num_nodes(),
                                                 wrht);
  }

  [[nodiscard]] std::unique_ptr<SubstrateExecution> make_plan(
      core::WrhtBuild build, const WavelengthBand& band, util::Bytes payload) {
    auto plan = std::make_unique<OpticalExecution>();
    plan->build = std::move(build);
    plan->band_ = band;
    plan->holds_band = true;
    plan->payload = payload;
    const std::size_t num_steps = plan->build.annotated.schedule.num_steps();
    plan->timed_steps.reserve(num_steps);
    for (std::size_t s = 0; s < num_steps; ++s) {
      plan->timed_steps.push_back(
          core::timed_step(plan->build.annotated, s, payload, band.base));
    }
    plan->outstanding_index = outstanding_.size();
    outstanding_.push_back(plan.get());
    return plan;
  }

  /// Drop an execution from the backlog registry the moment its band stops
  /// being outstanding (release, or a resize moving the band to a successor
  /// plan) — the plan object itself may be destroyed right after.  Swap-
  /// remove keeps this O(1); predict_completion sorts the registry before
  /// reading it, so the order perturbation is invisible.  Naive mode keeps
  /// the historical linear remove-erase for benchmark baselines.
  void forget(OpticalExecution& exec) {
    if (!flat_) {
      outstanding_.erase(
          std::remove(outstanding_.begin(), outstanding_.end(), &exec),
          outstanding_.end());
      return;
    }
    const std::size_t idx = exec.outstanding_index;
    WRHT_CHECK(idx < outstanding_.size() && outstanding_[idx] == &exec,
               "OpticalSubstrate: outstanding registry out of sync");
    outstanding_[idx] = outstanding_.back();
    outstanding_[idx]->outstanding_index = idx;
    outstanding_.pop_back();
  }

  const topo::RingTopology& ring_;
  optical::OpticalParams params_;
  sim::Simulator& sim_;
  /// Hot-path mode: interval-indexed arbiter, one spectrum-release event
  /// per step, O(1) outstanding-registry removal.  False restores the
  /// original per-transfer events and linear scans (benchmark baseline).
  bool flat_;
  /// Who places bands: the SpectrumPlanner or greedy first-fit (ablation).
  SpectrumPolicy policy_;
  optical::SpectrumMap spectrum_;
  optical::TransceiverBank transceivers_;
  SpectrumArbiter arbiter_;
  /// Metric handles; nullptr (zero-overhead emission) without a registry.
  obs::Counter* retunes_ = nullptr;
  obs::Counter* reservations_ = nullptr;
  /// Executions whose bands are currently outstanding, for the queue-wait
  /// backlog estimate.  Entries are non-owning and live exactly while the
  /// plan holds its band.
  std::vector<OpticalExecution*> outstanding_;
  /// Latest note_pending_demand snapshot: minimum widths of queued +
  /// suspended demand, excluding the job being placed.  Read only by the
  /// planner policy's placement cost.
  std::vector<std::uint32_t> pending_widths_;
  /// Fault health: down refcounts per ring position and per wavelength,
  /// the number of subjects currently down (the fault-free fast path), and
  /// which degraded wavelengths are held out of service as width-1 arbiter
  /// allocations.
  std::vector<std::uint8_t> node_down_;
  std::vector<std::uint8_t> wavelength_down_;
  std::uint32_t nodes_down_ = 0;
  std::uint32_t wavelengths_down_ = 0;
  std::vector<bool> quarantined_;
};

}  // namespace

std::unique_ptr<ExecutionSubstrate> make_optical_substrate(
    const topo::RingTopology& ring, const optical::OpticalParams& params,
    sim::Simulator& sim, bool flat_hot_path, SpectrumPolicy spectrum_policy) {
  return std::make_unique<OpticalSubstrate>(ring, params, sim, flat_hot_path,
                                            spectrum_policy);
}

}  // namespace wrht::runtime
