#include "runtime/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "coll/oracle.hpp"
#include "util/check.hpp"
#include "util/string_utils.hpp"
#include "wrht/builder.hpp"

namespace wrht::runtime {

namespace {

/// Most wavelengths a job over `num_participants` nodes can exploit: the
/// single-group tree step uses floor(P/2), and the all-to-all merge tops out
/// at the Liang & Shen budget ceil(P^2/8).  Granting more than this only
/// starves other tenants.
std::uint32_t useful_wavelength_cap(std::size_t num_participants) {
  const auto p = static_cast<std::uint32_t>(num_participants);
  return std::max(1u, core::all_to_all_wavelength_bound(p));
}

/// Below every real priority: "no waiter".
constexpr std::int32_t kLowest = std::numeric_limits<std::int32_t>::min();

/// `all` without the members of `removed`, order kept.
std::vector<topo::NodeId> without(std::vector<topo::NodeId> all,
                                  const std::vector<topo::NodeId>& removed) {
  std::erase_if(all, [&removed](topo::NodeId node) {
    return std::find(removed.begin(), removed.end(), node) != removed.end();
  });
  return all;
}

}  // namespace

const char* hybrid_placement_policy_name(HybridPlacementPolicy policy) {
  switch (policy) {
    case HybridPlacementPolicy::kOpticalOnly:
      return "optical-only";
    case HybridPlacementPolicy::kElectricalOverflow:
      return "electrical-overflow";
    case HybridPlacementPolicy::kCostModelChoice:
      return "cost-model-choice";
  }
  return "?";
}

std::string RuntimeReport::to_string() const {
  std::string out;
  out += "jobs            : " + std::to_string(submitted) + " submitted, " +
         std::to_string(completed) + " completed, " + std::to_string(rejected) +
         " rejected\n";
  out += "executions      : " + std::to_string(executions) + " (" +
         std::to_string(batches) + " fused batches)\n";
  out += "steps / retunes : " + std::to_string(total_steps) + " / " +
         std::to_string(total_retunes) + "\n";
  out += "renegotiations  : " + std::to_string(preemptions) + " preempted, " +
         std::to_string(resumes) + " resumed, " + std::to_string(resizes) +
         " resized\n";
  out += "retimed steps   : " + std::to_string(step_retimes) +
         " (shared-fabric contention changes), " +
         std::to_string(replay_checked_steps) + " replay-audited\n";
  out += "spectrum        : " + std::to_string(spectrum_reservations) +
         " reservations, 0 wavelength-conflict aborts\n";
  out += "peak concurrency: " + std::to_string(peak_concurrent_jobs) +
         " jobs\n";
  out += "optical         : " + std::to_string(optical.jobs) + " jobs, " +
         std::to_string(optical.executions) + " executions, " +
         std::to_string(optical.steps) + " steps, makespan " +
         util::to_string(optical.makespan) + "\n";
  out += "electrical      : " + std::to_string(electrical.jobs) + " jobs, " +
         std::to_string(electrical.executions) + " executions, " +
         std::to_string(electrical.steps) + " steps, makespan " +
         util::to_string(electrical.makespan);
  if (electrical.quiet_time.value() > 0.0) {
    out += ", contention slowdown " +
           util::format_double(electrical.contention_slowdown(), 3) + "x";
  }
  out += "\n";
  if (routing.decisions > 0) {
    out += "routing         : " + std::to_string(routing.decisions) +
           " cost-model decisions (" + std::to_string(routing.to_optical) +
           " optical / " + std::to_string(routing.to_electrical) +
           " electrical), mean |err| " +
           util::format_double(routing.mean_error * 100.0, 1) + "%, worst " +
           util::format_double(routing.worst_error * 100.0, 1) + "%\n";
  }
  if (faults.injected > 0) {
    out += "faults          : " + std::to_string(faults.injected) +
           " injected (" + std::to_string(faults.transceiver_faults) +
           " transceiver, " + std::to_string(faults.node_faults) + " node, " +
           std::to_string(faults.tor_faults) + " tor, " +
           std::to_string(faults.wavelength_faults) + " wavelength), " +
           std::to_string(faults.repairs) + " repaired\n";
    out += "fault recovery  : " + std::to_string(faults.evictions) +
           " evictions, " + std::to_string(faults.restarts) + " restarts, " +
           std::to_string(faults.migrations) + " migrations, " +
           std::to_string(faults.fault_preemptions) +
           " fault-preemptions, " + std::to_string(faults.killed_jobs) +
           " jobs killed\n";
    out += "mttr / goodput  : " + util::to_string(faults.mttr()) + " / " +
           util::format_double(goodput() * 100.0, 1) + "%\n";
  }
  out += "makespan        : " + util::to_string(makespan) + "\n";
  out += "mean turnaround : " + util::to_string(mean_turnaround()) + "\n";
  return out;
}

CollectiveRuntime::CollectiveRuntime(RuntimeConfig config)
    : config_(config),
      ring_(config.ring_size),
      optical_(make_optical_substrate(ring_, config_.optical, simulator_,
                                      config_.flat_hot_path,
                                      config_.spectrum_policy)),
      electrical_(config_.placement == HybridPlacementPolicy::kOpticalOnly
                      ? nullptr
                      : make_electrical_substrate(config_.ring_size,
                                                  config_.electrical)) {
  simulator_.event_queue().set_recycling(config_.flat_hot_path);
  queue_.set_flat(config_.flat_hot_path);
  substrates_.push_back(optical_.get());
  if (electrical_) substrates_.push_back(electrical_.get());
  init_instruments();
}

void CollectiveRuntime::init_instruments() {
  obs::MetricsRegistry* reg = config_.metrics;
  if (!reg) return;
  ins_.jobs_submitted = reg->counter("runtime.jobs_submitted");
  ins_.jobs_completed = reg->counter("runtime.jobs_completed");
  ins_.jobs_rejected = reg->counter("runtime.jobs_rejected");
  ins_.jobs_fused = reg->counter("runtime.jobs_fused");
  ins_.preemptions = reg->counter("runtime.preemptions");
  ins_.resumes = reg->counter("runtime.resumes");
  ins_.resizes = reg->counter("runtime.resizes");
  ins_.step_retimes = reg->counter("runtime.step_retimes");
  ins_.queue_depth = reg->sampled_gauge("runtime.queue_depth");
  ins_.running_jobs = reg->sampled_gauge("runtime.running_jobs");
  ins_.suspended_jobs = reg->sampled_gauge("runtime.suspended_jobs");
  ins_.admission_wait = reg->histogram("runtime.admission_wait_seconds");
  ins_.batch_jobs = reg->histogram("runtime.batch_jobs", 1.0, 2.0, 8);
  ins_.turnaround = reg->histogram("runtime.turnaround_seconds");
  ins_.slowdown = reg->histogram("runtime.slowdown", 1.0, 1.25, 32);
  ins_.routing_error = reg->histogram("runtime.routing_error");
  ins_.faults_injected = reg->counter("runtime.faults_injected");
  ins_.fault_repairs = reg->counter("runtime.fault_repairs");
  ins_.fault_recoveries = reg->counter("runtime.fault_recoveries");
  ins_.jobs_killed = reg->counter("runtime.jobs_killed");
  for (ExecutionSubstrate* substrate : substrates_) {
    substrate->attach_metrics(*reg);
  }
}

void CollectiveRuntime::pump_metrics() {
  if (!config_.metrics) return;
  obs::set(ins_.queue_depth, static_cast<double>(queue_.size()));
  obs::set(ins_.running_jobs, static_cast<double>(running_jobs_));
  obs::set(ins_.suspended_jobs, static_cast<double>(suspended_.size()));
  config_.metrics->sampler().maybe_sample(simulator_.now());
}

obs::Gauge* CollectiveRuntime::max_wait_gauge(std::int32_t priority) {
  if (!config_.metrics) return nullptr;
  const auto found = max_wait_by_priority_.find(priority);
  if (found != max_wait_by_priority_.end()) return found->second;
  obs::Gauge* gauge = config_.metrics->gauge(
      "runtime.max_wait_seconds.p" + std::to_string(priority));
  max_wait_by_priority_.emplace(priority, gauge);
  return gauge;
}

SubstrateBreakdown& CollectiveRuntime::breakdown(SubstrateKind kind) {
  return kind == SubstrateKind::kOptical ? report_.optical
                                         : report_.electrical;
}

JobId CollectiveRuntime::submit(JobSpec spec) {
  WRHT_REQUIRE(!started_, "CollectiveRuntime: submit after run()");
  return ingest(std::move(spec));
}

JobId CollectiveRuntime::ingest(JobSpec spec) {
  const auto id = static_cast<JobId>(records_.size());
  JobRecord record;
  record.id = id;
  record.spec = std::move(spec);

  const JobSpec& s = record.spec;
  const bool participants_ok =
      s.participants.size() >= 2 &&
      std::is_sorted(s.participants.begin(), s.participants.end()) &&
      std::adjacent_find(s.participants.begin(), s.participants.end()) ==
          s.participants.end() &&
      s.participants.back() < config_.ring_size;
  const std::uint32_t total = config_.optical.wdm.num_wavelengths;

  // An inconsistent spec is rejected with a reason, never silently rewritten:
  // a request below the job's own minimum, or a minimum above what the job
  // could ever use, is a tenant bug the runtime must surface, not paper over
  // by quietly inflating the grant.
  std::string reject;
  if (!participants_ok) {
    reject = "participants must be >= 2 ascending unique on-ring positions";
  } else if (s.min_wavelengths == 0) {
    reject = "min_wavelengths must be >= 1";
  } else if (s.min_wavelengths > total) {
    reject = "min_wavelengths exceeds the spectrum";
  } else if (s.arrival < util::Seconds(0.0)) {
    reject = "arrival time is negative";
  } else if (s.requested_wavelengths != 0 &&
             s.requested_wavelengths < s.min_wavelengths) {
    reject = "requested_wavelengths below min_wavelengths";
  } else if (useful_wavelength_cap(s.participants.size()) <
             s.min_wavelengths) {
    reject = "min_wavelengths exceeds the job's useful wavelength cap";
  } else if (s.pin == SubstratePin::kElectricalOnly &&
             config_.placement == HybridPlacementPolicy::kOpticalOnly) {
    reject = "pinned to the electrical fabric, but placement is optical-only";
  }

  if (!reject.empty()) {
    record.state = JobState::kRejected;
    record.reject_reason = std::move(reject);
    ++report_.rejected;
    obs::inc(ins_.jobs_rejected);
  } else {
    std::uint32_t request = s.requested_wavelengths != 0
                                ? s.requested_wavelengths
                                : config_.default_request;
    request = std::min(request, useful_wavelength_cap(s.participants.size()));
    // With the consistency checks above, the lower clamp binds only when the
    // RUNTIME default (requested_wavelengths == 0) sits below the tenant's
    // stated minimum — raising our own default is not rewriting their
    // request.
    record.effective_request =
        std::clamp(request, s.min_wavelengths, total);
  }
  ++report_.submitted;
  obs::inc(ins_.jobs_submitted);
  records_.push_back(std::move(record));
  return id;
}

const JobRecord& CollectiveRuntime::record(JobId id) const {
  WRHT_REQUIRE(id < records_.size(), "CollectiveRuntime: unknown job " << id);
  return records_[id];
}

void CollectiveRuntime::trace_job(sim::TraceKind kind, JobId id,
                                  const WavelengthBand& band) {
  // Band identity is its BASE for every job event (a band is named by where
  // it sits in the spectrum); the width travels in the detail so preempt /
  // resume / resize sequences in one trace are interpretable side by side.
  // Electrically-placed jobs hold no band and record the invalid {0, 0}.
  if (!trace_.enabled()) return;
  trace_.record(simulator_.now(), kind, id,
                static_cast<std::int64_t>(band.base),
                "width=" + std::to_string(band.width));
}

void CollectiveRuntime::on_arrival(JobId id) {
  JobRecord& record = records_[id];
  record.state = JobState::kQueued;
  QueueEntry entry{id, next_seq_++, record.spec.min_wavelengths,
                   record.effective_request, record.spec.weight,
                   record.spec.payload, record.spec.participants,
                   record.spec.priority, record.spec.arrival,
                   record.spec.pin};
  // Time-windowed batching: hold a fusable arrival out of admission for the
  // fuse window, so a burst landing on an idle ring still fuses instead of
  // its first job sprinting ahead alone.  Held entries stay visible to the
  // batcher (an admitted lead can still fuse them early) but not to the
  // admission policies.  Only jobs that could actually fuse are held —
  // with fusion structurally impossible (batch cap of 1, or a payload over
  // the fuse threshold) the window would be pure added latency.
  const util::Seconds window = config_.batcher.fuse_window;
  entry.held = config_.batcher.enabled && window > util::Seconds(0.0) &&
               config_.batcher.max_jobs_per_batch > 1 &&
               record.spec.payload <= config_.batcher.max_fuse_payload;
  if (entry.held) {
    // A false release_hold means the job already left the queue — fused
    // into an earlier batch or admitted — and there is nothing to release.
    simulator_.schedule_at(simulator_.now() + window, [this, id] {
      if (queue_.release_hold(id)) try_admit();
    });
  }
  queue_.push(std::move(entry));
  try_admit();
  pump_metrics();
}

std::int32_t CollectiveRuntime::aged(const QueueEntry& entry) const {
  return aged_priority(entry.priority, entry.arrival, simulator_.now(),
                       config_.aging_half_life);
}

std::optional<std::size_t> CollectiveRuntime::contender_head(
    const ExecutionSubstrate& substrate) const {
  return priority_head_if(
      queue_, simulator_.now(), config_.aging_half_life,
      [&substrate](const QueueEntry& e) { return substrate.contends(e); });
}

std::int32_t CollectiveRuntime::top_contender_priority(
    const ExecutionSubstrate& substrate) const {
  const std::optional<std::size_t> head = contender_head(substrate);
  return head ? aged(queue_.at(*head)) : kLowest;
}

std::optional<std::int32_t> CollectiveRuntime::top_suspended(
    const ExecutionSubstrate& substrate) const {
  std::optional<std::int32_t> top;
  for (const auto& exec : suspended_) {
    if (exec->substrate == &substrate) {
      top = std::max(top.value_or(effective_priority(*exec)),
                     effective_priority(*exec));
    }
  }
  return top;
}

std::int32_t CollectiveRuntime::effective_priority(
    const Execution& exec) const {
  // Running executions keep their raw priority; only WAITING work ages.
  if (!exec.suspended) return exec.priority;
  return aged_priority(exec.priority, exec.suspended_since, simulator_.now(),
                       config_.aging_half_life);
}

void CollectiveRuntime::publish_demand(ExecutionSubstrate& substrate,
                                       const Execution* excluding) {
  // Advisory planner input only — recomputed immediately before each
  // placement or allocating renegotiation, so the snapshot is exact at
  // decision time (a substrate that does not plan placements ignores it).
  //
  // The scan is bounded to a head-of-queue window: the head is what
  // admission considers next, and the planner's blocked/sliver terms only
  // discriminate on the near-term demand — an unbounded walk would make
  // every placement O(queue depth) and melt the streaming hot path (a
  // 100k-job serve keeps tens of thousands of jobs queued at once).
  constexpr std::size_t kDemandWindow = 32;
  std::vector<std::uint32_t> widths;
  const std::size_t scan = std::min(queue_.size(), kDemandWindow);
  for (std::size_t i = 0; i < scan; ++i) {
    const QueueEntry& entry = queue_.at(i);
    if (substrate.contends(entry)) widths.push_back(entry.min_wavelengths);
  }
  for (const auto& exec : suspended_) {
    if (exec.get() != excluding && exec->substrate == &substrate) {
      widths.push_back(exec->min_width);
    }
  }
  substrate.note_pending_demand(widths);
}

void CollectiveRuntime::try_admit() {
  // Cost-model routing happens before the optical loop, so a job the
  // models send to the electrical fabric is not grabbed by the optical
  // admission just because spectrum happens to be free.  The routing is
  // work-conserving, not sticky: when the job's hosts are busy, the
  // optical loop below may still run it on free spectrum rather than
  // idle-wait for the predicted-faster fabric.
  if (config_.placement == HybridPlacementPolicy::kCostModelChoice) {
    while (try_place_one_electrical()) {
    }
  }
  while (true) {
    // Under kPriorityPreempt a suspended OPTICAL execution that outranks
    // every queued job has first claim on freed spectrum, and while it
    // cannot resume, lower-priority arrivals must not be admitted into the
    // band it waits for — otherwise a steady trickle of small low-priority
    // jobs starves a preempted high-priority victim forever (admission-side
    // priority inversion).  Suspended ELECTRICAL executions wait for hosts,
    // not spectrum; they get the mirror guard inside the electrical
    // placement path and must not hold up the optical line here.
    const std::optional<std::int32_t> waiting =
        config_.policy == FairnessPolicy::kPriorityPreempt
            ? top_suspended(*optical_)
            : std::nullopt;
    if (waiting && *waiting > top_contender_priority(*optical_)) {
      if (try_resume_one()) continue;
      break;  // resume blocked: hold the line, ask for preemptions below
    }
    const std::optional<AdmissionDecision> decision =
        next_admission(queue_, config_.policy, optical_->largest_free_grant(),
                       optical_->free_grant_total(), simulator_.now(),
                       config_.aging_half_life);
    if (decision) {
      place_execution(*optical_, decision->queue_index, decision->grant,
                      /*fuse_band_width=*/decision->grant);
      continue;
    }
    if (try_resume_one()) continue;
    break;
  }
  // Overflow: whatever the optical loop declined spills onto free
  // electrical hosts instead of queueing for spectrum.
  if (config_.placement == HybridPlacementPolicy::kElectricalOverflow) {
    bool spilled = false;
    while (try_place_one_electrical()) spilled = true;
    // A spill drains the host-priority guard's reason to wait: the urgent
    // pinned arrival that was holding hosts hostage is running now, so a
    // suspended electrical execution may resume on what is left — at this
    // very instant, not at the next completion event.
    if (spilled) {
      while (try_resume_one()) {
      }
    }
  }
  if (config_.policy == FairnessPolicy::kPriorityPreempt) request_preemptions();
}

bool CollectiveRuntime::try_place_one_electrical() {
  if (!electrical_) return false;
  // Mirror of the optical admission guard: hosts freed for a suspended
  // electrical execution must not leak to lower-priority queued arrivals,
  // or a trickle of small pinned jobs starves the preempted victim.
  const std::int32_t top_elec_suspended =
      config_.policy == FairnessPolicy::kPriorityPreempt
          ? top_suspended(*electrical_).value_or(kLowest)
          : kLowest;
  // Candidate order mirrors the fairness policy's preference: priority
  // (ties on arrival) under kPriorityPreempt, arrival order otherwise (the
  // queue holds entries in arrival order).
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (!queue_.at(i).held) order.push_back(i);
  }
  if (config_.policy == FairnessPolicy::kPriorityPreempt) {
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return aged(queue_.at(a)) > aged(queue_.at(b));
                     });
  }
  for (const std::size_t idx : order) {
    const QueueEntry& job = queue_.at(idx);
    if (!electrical_->accepts(job.pin)) continue;
    if (top_elec_suspended > aged(job)) continue;
    if (!electrical_->can_place(job.participants, 1)) continue;
    if (config_.placement == HybridPlacementPolicy::kCostModelChoice &&
        job.pin != SubstratePin::kElectricalOnly) {
      // Route by predicted completion.  Under kCongestionAware both sides
      // answer for their CURRENT state — the electrical estimate stretches
      // with the live residual uplink bandwidth, the optical one with the
      // predicted wait for a free band — so a saturated fabric stops
      // attracting spill and a backed-up ring stops holding jobs.  Under
      // kQuietAlphaBeta the comparison is of quiet run times only (the
      // ablation baseline).  A pinned job skips the comparison — the
      // tenant already decided.
      const util::Seconds elec_done =
          predict(*electrical_, job.participants, job.payload, 1);
      const util::Seconds optic_done = predict(
          *optical_, job.participants, job.payload, job.requested_wavelengths);
      if (elec_done >= optic_done) continue;
      pending_route_prediction_ = {optic_done, elec_done};
    }
    place_execution(*electrical_, idx, /*grant=*/1,
                    /*fuse_band_width=*/std::nullopt);
    return true;
  }
  return false;
}

util::Seconds CollectiveRuntime::predict(
    const ExecutionSubstrate& substrate,
    const std::vector<topo::NodeId>& participants, util::Bytes payload,
    std::uint32_t grant) const {
  const util::Seconds now = simulator_.now();
  return config_.routing_cost_model == RoutingCostModel::kCongestionAware
             ? substrate.predict_completion(participants, payload, grant, now)
             : now + substrate.predict_makespan(participants, payload, grant);
}

void CollectiveRuntime::request_preemptions() {
  for (ExecutionSubstrate* substrate : substrates_) {
    // The most urgent waiter for this fabric: the queued contender
    // admission would pick (so preemptions always benefit the job it will
    // actually serve), or a suspended execution of this substrate awaiting
    // resume, whichever outranks the other.
    PreemptionWaiter waiter;
    std::int32_t target = kLowest;
    if (const std::optional<std::size_t> head = contender_head(*substrate)) {
      const QueueEntry& entry = queue_.at(*head);
      waiter = {true, &entry.participants, entry.min_wavelengths};
      target = aged(entry);
    }
    for (const auto& exec : suspended_) {
      if (exec->substrate != substrate) continue;
      const std::int32_t effective = effective_priority(*exec);
      if (effective > target) {
        waiter = {false, &exec->participants, exec->min_width};
        target = effective;
      }
    }
    if (waiter.participants == nullptr) continue;
    // The grant is not taken here — a victim surrenders it at its next
    // step boundary, which is what makes the handoff safe, and
    // renegotiate() re-checks the need there.
    std::vector<Execution*> holders;
    std::vector<PreemptionCandidate> candidates;
    for (const auto& exec : running_execs_) {
      if (exec->substrate != substrate) continue;
      holders.push_back(exec.get());
      candidates.push_back({exec->plan.get(), exec->priority,
                            exec->jobs.front(), exec->preempt_requested,
                            exec->priority < target});
    }
    for (const std::size_t i :
         substrate->preemption_victims(waiter, candidates)) {
      holders[i]->preempt_requested = true;
    }
  }
}

void CollectiveRuntime::verify_composite_or_die(const Execution& exec) {
  if (!config_.validate_with_oracle) {
    // Nothing to prove: records keep the benefit of the doubt, matching the
    // pre-renegotiation behavior of a disabled oracle.
    for (const JobId id : exec.jobs) records_[id].oracle_ok = true;
    return;
  }
  // Prove the steps ALREADY RUN plus the (possibly rebuilt) steps still
  // ahead compute the all-reduce — a renegotiated schedule must clear the
  // same bar as a fresh one, and an electrically-placed schedule the same
  // bar as an optical one, before touching its fabric.  Chunk granularity
  // follows the plan (Wrht schedules carry the full vector in one chunk,
  // electrical ring schedules are chunked); renegotiation never changes it,
  // so the executed prefix always shares the plan's granularity.  With no
  // prefix run yet the plan's schedule is the whole composite.
  std::optional<coll::Schedule> composite;
  if (!exec.executed.empty()) {
    composite.emplace("composite", config_.ring_size,
                      exec.plan->schedule().num_chunks());
    for (const auto* steps :
         {&exec.executed, &exec.plan->schedule().steps()}) {
      for (const coll::Step& step : *steps) {
        composite->add_step();
        for (const coll::Transfer& t : step.transfers) {
          composite->add_transfer(t);
        }
      }
    }
  }
  const coll::Schedule& proven =
      composite ? *composite : exec.plan->schedule();
  // Every chunk needs at least one element of the row: a k-chunk ring
  // schedule over more than oracle_payload_len participants proves on a
  // k-long row.
  const std::size_t payload_len = std::max<std::size_t>(
      config_.oracle_payload_len, proven.num_chunks());
  // Faults change the delivery contract, not the sum: once nodes were
  // evicted mid-flight, every ORIGINAL participant contributed but only
  // the survivors must end holding the total (the evicted nodes' hardware
  // is gone — their final state is unspecified).
  const coll::OracleResult verdict =
      exec.recipients.size() == exec.participants.size()
          ? coll::Oracle::verify_allreduce_among(proven, exec.participants,
                                                 payload_len)
          : coll::Oracle::verify_allreduce_among(
                proven, exec.participants, exec.recipients, payload_len);
  if (!verdict.ok) ++report_.oracle_failures;
  // A schedule that fails the oracle must never touch its fabric; like a
  // wavelength conflict, this is a library bug, not a tenant error.
  WRHT_CHECK(verdict.ok,
             "CollectiveRuntime: schedule failed the all-reduce oracle (job "
                 << exec.jobs.front() << "): " << verdict.message);
  for (const JobId id : exec.jobs) records_[id].oracle_ok = true;
}

void CollectiveRuntime::adopt_plan(Execution& exec,
                                   std::unique_ptr<SubstrateExecution> next) {
  const std::vector<coll::Step>& old_steps = exec.plan->schedule().steps();
  for (std::size_t s = 0; s < exec.next_step; ++s) {
    exec.executed.push_back(old_steps[s]);
  }
  exec.plan = std::move(next);
  exec.next_step = 0;
  verify_composite_or_die(exec);
  const std::size_t ahead = exec.plan->num_steps();
  for (const JobId id : exec.jobs) {
    JobRecord& record = records_[id];
    record.band = exec.plan->band();
    record.steps =
        static_cast<std::uint32_t>(exec.executed.size() + ahead);
  }
}

void CollectiveRuntime::place_execution(
    ExecutionSubstrate& substrate, std::size_t queue_index,
    std::uint32_t grant, std::optional<std::uint32_t> fuse_band_width) {
  // Read before the entry is popped: the width the routing audit prices
  // the optical alternative at when the execution lands electrically, and
  // the pin that tells it whether the router chose at all.
  const std::uint32_t lead_request =
      queue_.at(queue_index).requested_wavelengths;
  const SubstratePin lead_pin = queue_.at(queue_index).pin;
  const std::vector<std::size_t> members = fusable_peers(
      queue_, queue_index,
      fuse_band_width.value_or(std::numeric_limits<std::uint32_t>::max()),
      config_.batcher);

  auto exec = std::make_shared<Execution>();
  exec->substrate = &substrate;
  // Pop members back-to-front so earlier indices stay valid.
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    QueueEntry entry = queue_.take(*it);
    if (exec->participants.empty()) {
      exec->participants = std::move(entry.participants);
    }
    exec->batch_payload += entry.payload;
    exec->priority = std::max(exec->priority, entry.priority);
    exec->min_width = std::max(exec->min_width, entry.min_wavelengths);
    exec->jobs.push_back(entry.id);
  }
  std::reverse(exec->jobs.begin(), exec->jobs.end());  // oldest first
  exec->recipients = exec->participants;
  exec->useful_cap = useful_wavelength_cap(exec->participants.size());

  // The members just left the queue, so the snapshot is exactly the demand
  // this placement must not strand.
  publish_demand(substrate, nullptr);
  exec->plan =
      substrate.place(exec->participants, exec->batch_payload, grant);
  verify_composite_or_die(*exec);

  const SubstrateKind kind = substrate.kind();
  const WavelengthBand band = exec->plan->band();
  const std::size_t num_steps = exec->plan->num_steps();
  const util::Seconds now = simulator_.now();
  for (const JobId id : exec->jobs) {
    JobRecord& record = records_[id];
    record.state = JobState::kRunning;
    record.admitted = now;
    record.substrate = kind;
    record.band = band;
    record.batch_size = static_cast<std::uint32_t>(exec->jobs.size());
    record.steps = static_cast<std::uint32_t>(num_steps);
    trace_job(sim::TraceKind::kJobAdmit, id, band);
    trace_job(kind == SubstrateKind::kOptical
                  ? sim::TraceKind::kJobPlaceOptical
                  : sim::TraceKind::kJobPlaceElectrical,
              id, band);
    if (id != exec->jobs.front()) {
      trace_.record(now, sim::TraceKind::kJobFused, id,
                    static_cast<std::int64_t>(exec->jobs.front()));
    }
    // Admission wait of this job (fused peers waited too), folded into the
    // per-priority-class starvation high-watermark.
    const double wait = (now - record.spec.arrival).value();
    obs::observe(ins_.admission_wait, wait);
    obs::set_max(max_wait_gauge(record.spec.priority), wait);
  }
  obs::observe(ins_.batch_jobs, static_cast<double>(exec->jobs.size()));
  if (exec->jobs.size() > 1) {
    obs::inc(ins_.jobs_fused,
             static_cast<std::uint64_t>(exec->jobs.size() - 1));
    ++report_.batches;
  }
  ++report_.executions;
  SubstrateBreakdown& slice = breakdown(kind);
  slice.jobs += static_cast<std::uint32_t>(exec->jobs.size());
  ++slice.executions;

  // Admission does not filter on node liveness (a down TRANSCEIVER's job
  // may still have been queued before the fault): a fresh placement over
  // participants its substrate lost runs its first step and reconciles at
  // the first boundary, exactly like a running execution the fault caught.
  exec->fault_pending = !substrate.down_among(exec->participants).empty();

  audit_route_decision(*exec, lead_request, lead_pin);
  start(exec);
}

void CollectiveRuntime::start(const std::shared_ptr<Execution>& exec) {
  running_jobs_ += static_cast<std::uint32_t>(exec->jobs.size());
  report_.peak_concurrent_jobs =
      std::max(report_.peak_concurrent_jobs, running_jobs_);
  running_execs_.push_back(exec);
  run_step(exec);
}

void CollectiveRuntime::audit_route_decision(const Execution& exec,
                                             std::uint32_t optical_request,
                                             SubstratePin pin) {
  // The routing verdict binds HERE, at placement — until now the
  // comparison was re-asked on every event and carried no commitment.
  // Stamp each carried job with the chosen fabric's prediction (frozen for
  // post-hoc audit; the run-end report scores it against the actual
  // completion) and trace both fabrics' predictions, the decision's inputs.
  // One decision per EXECUTION (the router ran once; fused peers ride the
  // verdict), and none at all for pinned jobs — a forced placement says
  // nothing about the router's accuracy.
  const std::optional<std::pair<util::Seconds, util::Seconds>> precomputed =
      std::exchange(pending_route_prediction_, std::nullopt);
  if (config_.placement != HybridPlacementPolicy::kCostModelChoice ||
      !electrical_ || pin != SubstratePin::kAny) {
    return;
  }
  // The electrical placement path just priced both sides for exactly this
  // work — no fusion happened, the fabric state is untouched (the
  // execution's own flows are injected by run_step, after this audit) — so
  // its numbers are reused.  A FUSED execution runs batch_payload, not the
  // lead's payload the comparison priced, and an optical placement never
  // ran the comparison: both get a fresh estimate, the optical side priced
  // at the band the execution holds (else the lead's request).  A fresh
  // estimate prices only the chosen fabric, since only it reaches the
  // record and the report; the other side feeds the trace line alone, so
  // an untraced run skips its probe (an electrical one is a fabric clone
  // run to drain).
  const bool reuse = precomputed && exec.jobs.size() == 1;
  const auto price = [&](bool electrical) {
    if (reuse) return electrical ? precomputed->second : precomputed->first;
    return electrical
               ? predict(*electrical_, exec.participants, exec.batch_payload, 1)
               : predict(*optical_, exec.participants, exec.batch_payload,
                         exec.plan->band().valid() ? exec.plan->band().width
                                                   : optical_request);
  };
  const bool placed_electrical =
      exec.substrate->kind() == SubstrateKind::kElectrical;
  const util::Seconds chosen = price(placed_electrical);
  ++report_.routing.decisions;
  ++(placed_electrical ? report_.routing.to_electrical
                       : report_.routing.to_optical);
  for (const JobId id : exec.jobs) records_[id].predicted_completion = chosen;
  if (!trace_.enabled()) return;
  const util::Seconds other = price(!placed_electrical);
  std::string verdict = "optical=";
  verdict += util::to_string(placed_electrical ? other : chosen);
  verdict += " electrical=";
  verdict += util::to_string(placed_electrical ? chosen : other);
  for (const JobId id : exec.jobs) {
    trace_.record(simulator_.now(), sim::TraceKind::kRouteDecision, id,
                  static_cast<std::int64_t>(exec.substrate->kind()), verdict);
  }
}

bool CollectiveRuntime::renegotiate(const std::shared_ptr<Execution>& exec) {
  // Faults outrank every voluntary renegotiation: dead hardware cannot
  // carry the next step, so reconcile against the down sets before the
  // preempt/resize logic gets a say.
  if (exec->fault_pending && reconcile_faults(exec)) return true;
  ExecutionSubstrate& substrate = *exec->substrate;
  if (exec->preempt_requested) {
    exec->preempt_requested = false;
    // Re-check at the boundary: the waiter that asked for this grant — a
    // queued arrival or a suspended execution trying to resume — may have
    // been satisfied meanwhile by a completion elsewhere.  Only a waiter
    // contending for THIS fabric justifies the suspension.
    if (std::max(top_suspended(substrate).value_or(kLowest),
                 top_contender_priority(substrate)) > exec->priority) {
      // suspend_execution re-runs admission, which may legally resume THIS
      // execution at the same instant on a different band (run_step already
      // dispatched by the resume) — so the verdict here is "surrendered",
      // unconditionally, not the current suspended flag.
      suspend_execution(exec);
      return true;
    }
  }
  // Only a wavelength band grows or shrinks; host claims are fixed.
  if (!config_.elastic_resize || !exec->plan->band().valid()) return false;
  // Held (fuse-window) entries are not admissible yet, so they neither
  // justify a shrink nor block a grow.  Suspended executions of this
  // substrate wait for the same capacity: growing past them would hand a
  // runner the very band a preempted (possibly more urgent) job needs to
  // resume — priority inversion by resize.
  bool waiter = top_suspended(substrate).has_value();
  for (std::size_t i = 0; i < queue_.size() && !waiter; ++i) {
    waiter = substrate.contends(queue_.at(i));
  }
  if (waiter) {
    try_shrink(exec);
  } else if (exec->plan->band().width < exec->useful_cap) {
    resize(*exec,
           RenegotiationRequest::grow(exec->next_step, exec->useful_cap));
  }
  return false;
}

void CollectiveRuntime::suspend_execution(
    const std::shared_ptr<Execution>& exec, bool fault) {
  exec->substrate->release(*exec->plan, simulator_.now());  // idempotent
  exec->suspended = true;
  exec->suspended_since = simulator_.now();
  for (const JobId id : exec->jobs) {
    JobRecord& record = records_[id];
    record.state = JobState::kPreempted;
    ++record.preemptions;
    trace_job(sim::TraceKind::kJobPreempt, id, exec->plan->band());
  }
  running_jobs_ -= static_cast<std::uint32_t>(exec->jobs.size());
  ++report_.preemptions;
  obs::inc(ins_.preemptions);
  if (fault) ++report_.faults.fault_preemptions;
  running_execs_.erase(
      std::find(running_execs_.begin(), running_execs_.end(), exec));
  suspended_.push_back(exec);
  // The surrendered grant is free NOW, at the boundary — the waiting
  // high-priority job starts without waiting for this execution to finish.
  try_admit();
  pump_metrics();
}

bool CollectiveRuntime::try_resume_one() {
  if (suspended_.empty()) return false;
  // Highest EFFECTIVE (aged) priority first, FIFO among equals.
  std::vector<std::size_t> order(suspended_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return effective_priority(*suspended_[a]) >
                            effective_priority(*suspended_[b]);
                   });
  for (const std::size_t idx : order) {
    const std::shared_ptr<Execution> exec = suspended_[idx];
    ExecutionSubstrate& substrate = *exec->substrate;
    // Never hand capacity back to a victim while the queue still holds a
    // strictly more urgent job contending for the SAME fabric — that is
    // the resource being fought over.
    if (config_.policy == FairnessPolicy::kPriorityPreempt &&
        top_contender_priority(substrate) > effective_priority(*exec)) {
      continue;
    }
    // Fault reconciliation first: participants that died while this
    // execution waited must be dropped before (or instead of) resuming.
    std::vector<topo::NodeId> dead = substrate.down_among(exec->recipients);
    if (!dead.empty() && exec->recipients.size() - dead.size() < 2) {
      kill_execution(exec);
      return true;  // state changed; the caller's loop re-enters
    }
    if (exec->fresh_restart) {
      // Nothing executed survives anyway — just shrink the restart set.
      discard_prefix(*exec, without(exec->recipients, dead));
    }
    // The pre-suspension width is the sizing hint; the substrate may settle
    // for less (never below the floor) or need more for inherited mirrors.
    const std::uint32_t desired = std::clamp(
        exec->plan->band().width, exec->min_width, exec->useful_cap);
    RenegotiationOutcome outcome;
    if (!exec->fresh_restart) {
      publish_demand(substrate, exec.get());
      outcome = substrate.renegotiate(
          exec->plan.get(),
          RenegotiationRequest::resume(exec->next_step, desired,
                                       exec->min_width, dead));
      // The remainder cannot absorb the eviction (a dead node still
      // carries state it needs): restart fresh among the survivors.
      if (!outcome.accepted() && !dead.empty()) {
        discard_prefix(*exec, without(exec->recipients, dead));
        exec->fresh_restart = true;
      }
    }
    const bool restarted = exec->fresh_restart;
    if (restarted) outcome = restart_on(substrate, *exec, desired);
    if (!outcome.accepted()) continue;

    suspended_.erase(suspended_.begin() +
                     static_cast<std::ptrdiff_t>(idx));
    exec->suspended = false;
    if (restarted) {
      exec->fresh_restart = false;
      ++report_.faults.restarts;
    } else if (!dead.empty()) {
      exec->recipients = without(exec->recipients, dead);
      ++report_.faults.evictions;
    }
    adopt_plan(*exec, std::move(outcome.plan));
    note_recovery(*exec);
    for (const JobId id : exec->jobs) {
      records_[id].state = JobState::kRunning;
      trace_job(sim::TraceKind::kJobResume, id, exec->plan->band());
    }
    ++report_.resumes;
    obs::inc(ins_.resumes);
    start(exec);
    return true;
  }
  return false;
}

void CollectiveRuntime::try_shrink(const std::shared_ptr<Execution>& exec) {
  const std::uint32_t width = exec->plan->band().width;
  if (width <= exec->min_width) return;

  // A cut "helps" when the surrendered range would actually unblock
  // someone: the job the ACTIVE POLICY would admit next (under FIFO /
  // priority a fitting tail entry behind a blocked head admits nothing), or
  // a suspended execution waiting to resume.  Smaller keeps free more, so
  // helps is monotone — the GENTLEST helping cut is the right target:
  // surrendering more than the waiter needs just costs the running job
  // extra levels for nothing.
  const auto helps = [this, &exec, width](std::uint32_t target) {
    const std::uint32_t would =
        exec->substrate->free_grant_if_kept(*exec->plan, target);
    if (next_admission(queue_, config_.policy, would,
                       exec->substrate->free_grant_total() +
                           (width - target))) {
      return true;
    }
    return std::any_of(suspended_.begin(), suspended_.end(),
                       [&exec, would](const auto& suspended) {
                         return suspended->substrate == exec->substrate &&
                                suspended->min_width <= would;
                       });
  };
  std::uint32_t target = width - 1;
  while (target > exec->min_width && !helps(target)) --target;
  if (!helps(target)) return;

  // Deeper cuts only make the remainder rebuild harder (the owed mirrors
  // need their level widths), so if the gentlest helping cut cannot
  // rebuild, no helping cut can.
  if (resize(*exec, RenegotiationRequest::shrink(exec->next_step, target))) {
    try_admit();
  }
}

bool CollectiveRuntime::resize(Execution& exec,
                               const RenegotiationRequest& request) {
  RenegotiationOutcome outcome =
      exec.substrate->renegotiate(exec.plan.get(), request);
  if (!outcome.accepted()) return false;
  adopt_plan(exec, std::move(outcome.plan));
  for (const JobId id : exec.jobs) {
    ++records_[id].resizes;
    trace_job(sim::TraceKind::kJobResize, id, exec.plan->band());
  }
  ++report_.resizes;
  obs::inc(ins_.resizes);
  return true;
}

// ---------------------------------------------------------------------------
// Fault injection and recovery.

void CollectiveRuntime::pump_faults() {
  if (fault_source_ == nullptr) return;
  std::optional<FaultSpec> spec = fault_source_->next();
  if (!spec) {
    fault_source_ = nullptr;
    return;
  }
  WRHT_REQUIRE(spec->at >= last_fault_at_,
               "CollectiveRuntime: fault source yielded injection at "
                   << spec->at.value() << "s after " << last_fault_at_.value()
                   << "s — faults must be in nondecreasing time order");
  last_fault_at_ = spec->at;
  // Chain exactly like pump_source: the injection event pulls the NEXT
  // fault, so one not-yet-injected fault exists at any instant.
  fault_event_ = simulator_.schedule_at(spec->at, [this, fault = *spec] {
    on_fault(fault);
    pump_faults();
  });
}

void CollectiveRuntime::stop_faults_if_workload_done() {
  // Every job the source will ever yield has been ingested, and each one
  // has completed, been rejected, or been killed.
  if (fault_source_ != nullptr && source_ == nullptr &&
      report_.completed + report_.rejected + report_.faults.killed_jobs ==
          report_.submitted) {
    simulator_.cancel(fault_event_);
    fault_source_ = nullptr;
  }
}

void CollectiveRuntime::on_fault(const FaultSpec& fault) {
  FaultStats& stats = report_.faults;
  ++stats.injected;
  obs::inc(ins_.faults_injected);
  std::uint32_t* const by_domain[] = {
      &stats.transceiver_faults, &stats.node_faults, &stats.tor_faults,
      &stats.wavelength_faults};
  ++*by_domain[static_cast<std::size_t>(fault.domain)];
  const util::Seconds now = simulator_.now();
  trace_.record(now,
                fault.domain == FaultDomain::kWavelength
                    ? sim::TraceKind::kWavelengthDegrade
                    : sim::TraceKind::kNodeFail,
                fault.subject, static_cast<std::int64_t>(fault.domain),
                fault_domain_name(fault.domain));
  // Each substrate takes the fault into its own health state; free down
  // units leave service immediately, granted ones when their holders
  // release.
  for (ExecutionSubstrate* substrate : substrates_) substrate->fail(fault);

  // Mark every running execution the fault touches for reconciliation at
  // its next BSP step boundary — the in-flight step finishes first (its
  // transfers were committed when the step was dispatched).
  for (const auto& exec : running_execs_) {
    if (!exec->substrate->disrupts(*exec->plan, exec->recipients, fault)) {
      continue;
    }
    if (!exec->fault_pending) ++report_.faults.disrupted_executions;
    exec->fault_pending = true;
    if (exec->fault_since.value() <= 0.0) exec->fault_since = now;
  }

  // Suspended work whose survivor set this fault just shrank below two can
  // never resume — kill it now rather than strand it (and the
  // drained-clock invariant) behind a resume that will refuse forever.
  // (A kill's admission re-run may already have moved a later one.)
  const std::vector<std::shared_ptr<Execution>> snapshot = suspended_;
  for (const auto& exec : snapshot) {
    if (exec->suspended &&
        exec->recipients.size() -
                exec->substrate->down_among(exec->recipients).size() <
            2) {
      kill_execution(exec);
    }
  }

  if (fault.repair_after.value() > 0.0) {
    const FaultSpec copy = fault;
    simulator_.schedule_at(now + fault.repair_after,
                           [this, copy] { on_fault_repair(copy); });
  }
  pump_metrics();
}

void CollectiveRuntime::on_fault_repair(const FaultSpec& fault) {
  ++report_.faults.repairs;
  obs::inc(ins_.fault_repairs);
  trace_.record(simulator_.now(), sim::TraceKind::kFaultRepair,
                fault.subject, static_cast<std::int64_t>(fault.domain),
                fault_domain_name(fault.domain));
  for (ExecutionSubstrate* substrate : substrates_) substrate->repair(fault);
  // Restored capacity is free capacity: suspended work may resume and
  // queued work may admit at this very instant.
  try_admit();
  pump_metrics();
}

void CollectiveRuntime::note_recovery(Execution& exec) {
  if (exec.fault_since.value() <= 0.0) return;
  report_.faults.total_recovery += simulator_.now() - exec.fault_since;
  ++report_.faults.recoveries;
  exec.fault_since = util::Seconds(0.0);
  obs::inc(ins_.fault_recoveries);
}

void CollectiveRuntime::kill_execution(
    const std::shared_ptr<Execution>& exec) {
  for (const JobId id : exec->jobs) {
    JobRecord& record = records_[id];
    record.state = JobState::kFailed;
    trace_job(sim::TraceKind::kJobKilled, id, record.band);
  }
  report_.faults.killed_jobs +=
      static_cast<std::uint32_t>(exec->jobs.size());
  obs::inc(ins_.jobs_killed, exec->jobs.size());
  report_.faults.wasted_step_time += exec->busy_time;
  // The breakdown counted these jobs at placement; a killed job never
  // completes, so the slice must forget it for optical.jobs +
  // electrical.jobs == completed to keep closing.
  breakdown(exec->substrate->kind()).jobs -=
      static_cast<std::uint32_t>(exec->jobs.size());
  if (exec->suspended) {
    suspended_.erase(std::find(suspended_.begin(), suspended_.end(), exec));
    exec->suspended = false;
  } else {
    running_jobs_ -= static_cast<std::uint32_t>(exec->jobs.size());
    exec->substrate->release(*exec->plan, simulator_.now());
    running_execs_.erase(
        std::find(running_execs_.begin(), running_execs_.end(), exec));
  }
  try_admit();
  stop_faults_if_workload_done();
  pump_metrics();
}

bool CollectiveRuntime::reconcile_faults(
    const std::shared_ptr<Execution>& exec) {
  using Kind = FaultRemedy::Kind;
  exec->fault_pending = false;
  ExecutionSubstrate& substrate = *exec->substrate;
  const FaultRemedy remedy =
      substrate.remedy(*exec->plan, exec->recipients, exec->min_width);
  if (remedy.kind == Kind::kNone) {
    // Stale marker: the repair beat this boundary.  The execution never
    // actually stopped — close the recovery window and carry on.
    note_recovery(*exec);
    return false;
  }
  if (!remedy.dead.empty() &&
      exec->recipients.size() - remedy.dead.size() < 2) {
    kill_execution(exec);
    return true;
  }
  if (remedy.kind == Kind::kEvict) {
    // Survivor rebuild in place: same grant, remainder re-proven with the
    // dead nodes stripped from its delivery set.
    RenegotiationOutcome outcome = substrate.renegotiate(
        exec->plan.get(),
        RenegotiationRequest::evict(exec->next_step, remedy.dead));
    if (outcome.accepted()) {
      exec->recipients = without(exec->recipients, remedy.dead);
      ++report_.faults.evictions;
      adopt_plan(*exec, std::move(outcome.plan));
      note_recovery(*exec);
      return false;  // still running; the caller dispatches the next step
    }
  }
  if (remedy.kind == Kind::kEvict || remedy.kind == Kind::kRestart) {
    // The remainder cannot absorb the eviction (a dead node still carries
    // live state), or the grant itself is degraded: discard the prefix and
    // restart fresh among the survivors on a fresh grant.
    const std::uint32_t width = exec->plan->band().width;
    discard_prefix(*exec, without(exec->recipients, remedy.dead));
    substrate.release(*exec->plan, simulator_.now());
    RenegotiationOutcome outcome = restart_on(
        substrate, *exec, std::clamp(width, exec->min_width, exec->useful_cap));
    if (!outcome.accepted()) {
      exec->fresh_restart = true;
      suspend_execution(exec, /*fault=*/true);
      return true;
    }
    ++report_.faults.restarts;
    adopt_plan(*exec, std::move(outcome.plan));
    note_recovery(*exec);
    // The band moved: record the new claim so band-disjointness audits
    // can follow the execution across the restart.
    for (const JobId id : exec->jobs) {
      trace_job(sim::TraceKind::kJobResize, id, exec->plan->band());
    }
    return false;
  }
  if (remedy.kind == Kind::kShrink &&
      resize(*exec,
             RenegotiationRequest::shrink(exec->next_step, remedy.keep))) {
    note_recovery(*exec);
    return false;
  }
  if (remedy.kind == Kind::kMigrate && migrate(exec)) return false;
  // Nothing in place can carry the work: fault-suspend until repair or
  // free capacity.  A resume re-places the remainder (electrical hosts
  // checkpoint at BSP boundaries, so a dead host costs a remap, not data).
  suspend_execution(exec, /*fault=*/true);
  return true;
}

bool CollectiveRuntime::migrate(const std::shared_ptr<Execution>& exec) {
  for (ExecutionSubstrate* target : substrates_) {
    // Only migratable work qualifies: every carried job allowed on the
    // target, and every participant in service there (the restart re-runs
    // the all-reduce from the participants' initial gradients).  The
    // restart is tried before any state is mutated, so a refusal degrades
    // cleanly into the fault-suspend.
    const bool allowed = std::all_of(
        exec->jobs.begin(), exec->jobs.end(), [this, target](JobId id) {
          return target->accepts(records_[id].spec.pin);
        });
    if (target == exec->substrate || !allowed ||
        !target->down_among(exec->participants).empty()) {
      continue;
    }
    RenegotiationOutcome outcome = restart_on(
        *target, *exec,
        std::clamp(config_.default_request, exec->min_width,
                   exec->useful_cap));
    if (!outcome.accepted()) continue;
    discard_prefix(*exec, exec->participants);
    exec->substrate->release(*exec->plan, simulator_.now());
    // The jobs change fabric mid-flight; move their breakdown slice so
    // per-substrate job counts keep closing against completions.
    const auto moved = static_cast<std::uint32_t>(exec->jobs.size());
    SubstrateBreakdown& from = breakdown(exec->substrate->kind());
    SubstrateBreakdown& to = breakdown(target->kind());
    from.jobs -= moved;
    to.jobs += moved;
    --from.executions;
    ++to.executions;
    exec->substrate = target;
    adopt_plan(*exec, std::move(outcome.plan));
    ++report_.faults.migrations;
    note_recovery(*exec);
    for (const JobId id : exec->jobs) {
      records_[id].substrate = target->kind();
      trace_job(sim::TraceKind::kJobMigrate, id, exec->plan->band());
    }
    return true;  // still running; the caller dispatches step 0
  }
  return false;
}

void CollectiveRuntime::discard_prefix(Execution& exec,
                                       std::vector<topo::NodeId> survivors) {
  report_.faults.wasted_step_time += exec.busy_time;
  exec.busy_time = util::Seconds(0.0);
  exec.quiet_time = util::Seconds(0.0);
  exec.participants = survivors;
  exec.recipients = std::move(survivors);
  exec.useful_cap = useful_wavelength_cap(exec.participants.size());
  exec.executed.clear();
  exec.next_step = 0;
}

RenegotiationOutcome CollectiveRuntime::restart_on(ExecutionSubstrate& target,
                                                   Execution& exec,
                                                   std::uint32_t desired) {
  publish_demand(target, &exec);
  return target.renegotiate(
      nullptr, RenegotiationRequest::restart(exec.participants,
                                             exec.batch_payload, desired,
                                             exec.min_width));
}

void CollectiveRuntime::run_step(const std::shared_ptr<Execution>& exec) {
  trace_.record(simulator_.now(), sim::TraceKind::kStepBegin,
                exec->jobs.front(), static_cast<std::int64_t>(exec->next_step));
  const StepTiming timing = exec->substrate->time_step(
      *exec->plan, exec->next_step, simulator_.now());
  ++report_.total_steps;
  report_.total_retunes += timing.retunes;
  report_.spectrum_reservations += timing.reservations;
  ++breakdown(exec->substrate->kind()).steps;
  exec->step_started = simulator_.now();
  exec->quiet_time += timing.quiet;
  exec->step_event =
      simulator_.schedule_at(timing.end, [this, exec] { on_step_end(exec); });
  // Injecting this step's flows may have changed what every OTHER tenant on
  // a shared fabric gets; their completion events move with the contention.
  apply_retimings(*exec->substrate);
  pump_metrics();
}

void CollectiveRuntime::on_step_end(const std::shared_ptr<Execution>& exec) {
  // Actual wall-clock of the step that just finished — under shared-fabric
  // contention this is the (possibly re-scheduled) real duration, not the
  // quiet prediction, so busy_time / quiet_time is the contention slowdown.
  exec->busy_time += simulator_.now() - exec->step_started;
  report_.step_time_total += simulator_.now() - exec->step_started;
  trace_.record(simulator_.now(), sim::TraceKind::kStepEnd,
                exec->jobs.front(), static_cast<std::int64_t>(exec->next_step));
  ++exec->next_step;
  if (exec->next_step >= exec->plan->num_steps()) {
    finish_execution(exec);
    return;
  }
  // The renegotiation point: every shared-medium cell this execution held
  // is released by now (transfer-end events precede the boundary), so its
  // grant can be surrendered, grown, or shrunk without a stale
  // reservation existing anywhere.
  if (renegotiate(exec)) return;  // surrendered; resume dispatches later
  run_step(exec);
}

void CollectiveRuntime::apply_retimings(ExecutionSubstrate& substrate) {
  for (const StepRetiming& retiming : substrate.take_retimings()) {
    for (const std::shared_ptr<Execution>& exec : running_execs_) {
      if (exec->plan.get() != retiming.exec) continue;
      simulator_.cancel(exec->step_event);
      exec->step_event = simulator_.schedule_at(
          retiming.end, [this, exec = exec] { on_step_end(exec); });
      ++report_.step_retimes;
      obs::inc(ins_.step_retimes);
      if (trace_.enabled()) {
        trace_.record(simulator_.now(), sim::TraceKind::kStepRetimed,
                      exec->jobs.front(),
                      static_cast<std::int64_t>(exec->next_step),
                      "end=" + util::to_string(retiming.end));
      }
      break;
    }
  }
}

void CollectiveRuntime::finish_execution(
    const std::shared_ptr<Execution>& exec) {
  // Contention slowdown of the whole execution: what its steps cost on the
  // (possibly shared) fabric vs. what they would have cost alone.  Jobs
  // fused into one execution shared every step, so they share the ratio.
  const double slowdown =
      exec->quiet_time.value() > 0.0
          ? exec->busy_time.value() / exec->quiet_time.value()
          : 0.0;
  for (const JobId id : exec->jobs) {
    JobRecord& record = records_[id];
    record.state = JobState::kDone;
    record.completed = simulator_.now();
    record.contention_slowdown = slowdown;
    obs::observe(ins_.turnaround, record.turnaround().value());
    // Same slowdown definition as obs::compute_slo: turnaround over service
    // span, 1.0 for an instantaneous service.
    const double service = (record.completed - record.admitted).value();
    obs::observe(ins_.slowdown,
                 service > 0.0 ? record.turnaround().value() / service : 1.0);
    if (record.predicted_completion.value() > 0.0) {
      // Score the routing decision now that the truth is in: error
      // relative to the span the router promised, both directions equally
      // damning.  Every audited job carries its error for visibility, but
      // the aggregate folds ONE entry per execution (fused peers share
      // prediction and completion, so they share the error too — counting
      // each would weight batches by their size).
      const double span = std::max(
          (record.predicted_completion - record.admitted).value(), 1e-12);
      record.routing_error =
          std::abs((record.completed - record.predicted_completion).value()) /
          span;
      if (id == exec->jobs.front()) {
        routing_error_sum_ += record.routing_error;
        report_.routing.worst_error =
            std::max(report_.routing.worst_error, record.routing_error);
        obs::observe(ins_.routing_error, record.routing_error);
      }
    }
    completion_order_.push_back(id);
    ++report_.completed;
    report_.total_turnaround += record.turnaround();
    trace_job(sim::TraceKind::kJobComplete, id, record.band);
  }
  SubstrateBreakdown& slice = breakdown(exec->substrate->kind());
  slice.makespan = std::max(slice.makespan, simulator_.now());
  slice.busy_time += exec->busy_time;
  slice.quiet_time += exec->quiet_time;
  last_completion_ = std::max(last_completion_, simulator_.now());
  running_jobs_ -= static_cast<std::uint32_t>(exec->jobs.size());
  obs::inc(ins_.jobs_completed,
           static_cast<std::uint64_t>(exec->jobs.size()));
  exec->substrate->release(*exec->plan, simulator_.now());
  running_execs_.erase(
      std::find(running_execs_.begin(), running_execs_.end(), exec));
  try_admit();
  stop_faults_if_workload_done();
  pump_metrics();
}

RuntimeReport CollectiveRuntime::run() {
  WRHT_REQUIRE(!started_, "CollectiveRuntime: run() called twice");
  return drive(nullptr);
}

RuntimeReport CollectiveRuntime::serve(JobSource& source) {
  WRHT_REQUIRE(!started_, "CollectiveRuntime: serve() after run()");
  return drive(&source);
}

void CollectiveRuntime::pump_source(util::Seconds floor) {
  while (source_ != nullptr) {
    std::optional<JobSpec> spec = source_->next();
    if (!spec) {
      source_ = nullptr;
      return;
    }
    WRHT_REQUIRE(spec->arrival >= floor,
                 "CollectiveRuntime: serve() source yielded arrival "
                     << spec->arrival.value() << "s after " << floor.value()
                     << "s — arrivals must be nondecreasing");
    const util::Seconds arrival = spec->arrival;
    const JobId id = ingest(std::move(*spec));
    if (records_[id].state == JobState::kRejected) continue;  // keep pulling
    // Chain: the arrival event itself pulls the NEXT spec, so exactly one
    // not-yet-arrived job exists at any instant — the event queue and the
    // source's buffering stay O(in-flight) across a million-job trace.
    simulator_.schedule_at(arrival, [this, id, arrival] {
      on_arrival(id);
      pump_source(arrival);
    });
    return;
  }
}

RuntimeReport CollectiveRuntime::drive(JobSource* source) {
  started_ = true;
  // Jobs submitted before serve() still run (the CLI submits warm-up jobs
  // this way); the stream chains in alongside them.
  for (const JobRecord& record : records_) {
    if (record.state != JobState::kSubmitted) continue;  // rejected
    const JobId id = record.id;
    simulator_.schedule_at(record.spec.arrival, [this, id] { on_arrival(id); });
  }
  source_ = source;
  pump_source(util::Seconds(0.0));
  // Metric bookends: every counter track opens at t=0 with the idle state
  // and closes with a forced snapshot at the drained clock, so the Chrome
  // trace's series span the whole run whatever the cadence.
  const auto bookend = [this] {
    if (!config_.metrics) return;
    pump_metrics();
    config_.metrics->sampler().sample_now(simulator_.now());
  };
  bookend();
  // The fault stream chains in exactly like the job stream: one
  // not-yet-injected fault in the event queue at any instant.
  fault_source_ = config_.faults;
  pump_faults();
  simulator_.run();

  WRHT_CHECK(queue_.empty() && running_jobs_ == 0 && suspended_.empty(),
             "CollectiveRuntime: clock drained with "
                 << queue_.size() << " queued / " << running_jobs_
                 << " running / " << suspended_.size() << " suspended jobs");
  // The makespan is the last COMPLETION, not the drained clock: a
  // fuse-window hold-release timer for a job that was fused early can
  // outlive the final completion as a no-op event, and phantom idle time
  // must not be billed to the workload.
  report_.makespan = last_completion_;

  // End-of-run audits: the shared electrical fabric replays its whole flow
  // horizon into a fresh network and must reproduce every incremental step
  // time (aborts on disagreement); the per-link peaks tell the congestion
  // story the slowdown numbers summarize.
  for (ExecutionSubstrate* substrate : substrates_) {
    report_.replay_checked_steps += substrate->self_check();
  }
  if (electrical_) {
    report_.electrical_link_peak = electrical_->link_peak_utilization();
  }
  if (report_.routing.decisions > 0) {
    // Every audited execution has completed by now — the drained-clock
    // check above aborts on any surviving queued/suspended job — so the
    // error sum covers exactly `decisions` entries.
    report_.routing.mean_error =
        routing_error_sum_ / static_cast<double>(report_.routing.decisions);
  }
  bookend();
  // Exact nearest-rank SLO percentiles from the job records — computed
  // whether or not a registry is installed, so the report's quantiles are
  // bit-for-bit reproducible from records() by tests.
  report_.slo = obs::compute_slo(records_);
  return report_;
}

}  // namespace wrht::runtime
