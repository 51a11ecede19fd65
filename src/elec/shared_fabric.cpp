#include "elec/shared_fabric.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

#include "obs/metrics.hpp"

namespace wrht::elec {

SharedFabricTimer::SharedFabricTimer(const ElectricalCluster& cluster,
                                     bool replay_audit)
    : cluster_(&cluster),
      network_(cluster.make_network()),
      audit_(replay_audit) {}

void SharedFabricTimer::attach_metrics(obs::MetricsRegistry& registry) {
  steps_timed_ = registry.counter("fabric.steps_timed");
  retimings_emitted_ = registry.counter("fabric.retimings");
  replay_epochs_ = registry.counter("fabric.replay_epochs");
  replay_peak_held_ = registry.gauge("fabric.replay_peak_held_steps");
  uplink_utilization_ = registry.sampled_gauge("electrical.uplink_utilization");
}

void SharedFabricTimer::publish_utilization() {
  if (!uplink_utilization_) return;
  double hottest = 0.0;
  for (std::size_t l = 0; l < network_.num_links(); ++l) {
    hottest = std::max(hottest,
                       network_.link_utilization(static_cast<LinkId>(l)));
  }
  uplink_utilization_->set(hottest);
}

SharedFabricTimer::SessionId SharedFabricTimer::open_session() {
  sessions_.push_back(Session{});
  sessions_.back().open = true;
  const auto id = static_cast<SessionId>(sessions_.size() - 1);
  open_sessions_.push_back(id);  // new ids are largest — stays sorted
  return id;
}

std::size_t SharedFabricTimer::active_sessions() const {
  return open_sessions_.size();
}

util::Seconds SharedFabricTimer::drained_end(SessionId session_id) const {
  const Session& session = sessions_[session_id];
  util::Seconds end = session.step_start;
  for (const FlowId flow : session.inflight) {
    WRHT_CHECK(network_.completed(flow),
               "SharedFabricTimer: step boundary before its flows drained "
               "(session "
                   << session_id << " step " << session.step_number << ")");
    end = std::max(end, network_.completion_time(flow));
  }
  return end;
}

void SharedFabricTimer::finalize_step(SessionId session_id) {
  Session& session = sessions_[session_id];
  if (!session.has_step) return;
  const util::Seconds end = drained_end(session_id);
  if (audit_) {
    if (session.current_step < dropped_steps_) {
      // Its epoch closed while it sat drained: already checked against
      // this very end (the same flows' recorded completions).
      WRHT_CHECK(drained_unfinalized_ > 0,
                 "SharedFabricTimer: session " << session_id
                     << " folds a step no closed epoch checked");
      --drained_unfinalized_;
    } else {
      LoggedStep& logged = steps_[session.current_step - dropped_steps_];
      logged.end = end;
      logged.finalized = true;
    }
  }
  session.inflight.clear();
  session.has_step = false;
}

void SharedFabricTimer::log_advance(util::Seconds time) {
  if (!audit_) return;
  ops_.push_back(LoggedOp{time, -1});
  if (network_.idle()) close_epoch();
}

void SharedFabricTimer::close_epoch() {
  if (!steps_.empty()) {
    // Every logged step has drained.  A session whose completion event has
    // not fired yet still holds its step (its flows are not retired while
    // it does), so its end is read now with finalize_step's formula.
    for (const SessionId id : open_sessions_) {
      const Session& session = sessions_[id];
      if (!session.has_step || session.current_step < dropped_steps_) {
        continue;
      }
      LoggedStep& logged = steps_[session.current_step - dropped_steps_];
      logged.end = drained_end(id);
      logged.finalized = true;
      ++drained_unfinalized_;
    }
    if (replay_.num_links() == 0) {
      replay_ = cluster_->make_network();  // built on the first close
    } else {
      replay_.reset();
    }
    const Verdict verdict = replay_log(replay_);
    closed_mismatches_ += verdict.mismatches;
    closed_checked_ += verdict.checked;
    dropped_steps_ += steps_.size();
    ++epochs_closed_;
    obs::inc(replay_epochs_);
  }
  // The advances of an empty log only move an idle clock, which the next
  // epoch's first op sets anyway.
  steps_.clear();
  flows_.clear();
  ops_.clear();
}

std::optional<util::Seconds> SharedFabricTimer::begin_step(
    SessionId session_id, const coll::Schedule& schedule, std::size_t step,
    util::Bytes payload, util::Seconds now) {
  // Every begin_step moves the fabric on, so a probe is fresh for at most
  // the very next one.
  const bool probed = std::exchange(probe_.fresh, false);
  if (session_id >= sessions_.size() || !sessions_[session_id].open) {
    return std::nullopt;
  }
  if (step >= schedule.num_steps()) return std::nullopt;
  if (schedule.num_nodes() > cluster_->num_hosts()) return std::nullopt;
  if (now < network_.now()) return std::nullopt;

  Session& session = sessions_[session_id];
  network_.run_until(now);
  // The advance itself is logged unconditionally — the replay oracle must
  // split its advances exactly where the live network split them, even when
  // the request dies on the completion check below.
  log_advance(now);
  if (session.has_step) {
    for (const FlowId flow : session.inflight) {
      if (!network_.completed(flow)) return std::nullopt;
    }
    finalize_step(session_id);
  }

  step_flows(schedule, step, payload, pending_);
  const bool adopt = probed && probe_.now == now && probe_.flows == pending_;
  session.current_step = logged_steps();
  session.step_start = now;
  session.step_number = static_cast<std::uint64_t>(step);
  for (const StepFlow& flow : pending_) {
    session.inflight.push_back(
        network_.add_flow(cluster_->route(flow.src, flow.dst), flow.bytes));
  }
  session.has_step = !session.inflight.empty();
  if (audit_) {
    LoggedStep logged;
    logged.start = now;
    logged.first_flow = static_cast<std::uint32_t>(flows_.size());
    logged.num_flows = static_cast<std::uint32_t>(pending_.size());
    // A flow-less step (e.g. a barrier round another group participates in)
    // completes instantly.
    logged.end = now;
    logged.finalized = !session.has_step;
    flows_.insert(flows_.end(), pending_.begin(), pending_.end());
    ops_.push_back(LoggedOp{now, static_cast<std::ptrdiff_t>(steps_.size())});
    steps_.push_back(logged);
    peak_held_steps_ = std::max<std::uint64_t>(peak_held_steps_,
                                               steps_.size());
    obs::set_max(replay_peak_held_, static_cast<double>(steps_.size()));
  }
  obs::inc(steps_timed_);
  publish_utilization();

  if (!session.has_step) {
    // Nobody else's sharing changed.
    session.predicted_end = now;
    retire_drained();
    return now;
  }
  session.predicted_end = now;  // repredict overwrites with the real value
  repredict(session_id, adopt);
  retire_drained();
  return session.predicted_end;
}

void SharedFabricTimer::repredict(SessionId started, bool adopt) {
  // Forward-run a live-flows-only copy to completion: each in-flight step
  // ends when the last of its flows drains.  The copy shares the real
  // network's arithmetic, so the prediction is the fluid model's answer,
  // not an estimate — it only goes stale if another flow arrives later,
  // and that arrival re-runs this very function.  A fresh probe of the
  // step just injected has already made exactly this run.
  const FlowId floor = network_.id_floor();
  std::vector<FlowId> own_map;
  FlowNetwork own_run;
  if (adopt) {
    WRHT_CHECK(probe_.id_map.size() ==
                   sessions_[started].inflight.back() - floor + 1,
               "SharedFabricTimer: adopted probe does not cover the flows "
               "just injected");
  } else {
    own_run = network_.clone_live(own_map);
    own_run.run();
    ++forward_runs_;
  }
  const FlowNetwork& forward = adopt ? probe_.forward : own_run;
  const std::vector<FlowId>& id_map = adopt ? probe_.id_map : own_map;
  for (const SessionId id : open_sessions_) {
    Session& session = sessions_[id];
    if (!session.has_step) continue;
    util::Seconds end = session.step_start;
    bool any_live = false;
    for (const FlowId flow : session.inflight) {
      // A flow that already drained on the real network keeps its recorded
      // completion; only still-live flows take the forward prediction.
      if (network_.completed(flow)) {
        end = std::max(end, network_.completion_time(flow));
      } else {
        any_live = true;
        end = std::max(end, forward.completion_time(id_map[flow - floor]));
      }
    }
    if (id == started) {
      session.predicted_end = end;
    } else if (any_live && end != session.predicted_end) {
      // A fully-drained step is already over — its completion event is in
      // the past of this arrival and must not be re-scheduled; the caller's
      // pending boundary event will finalize it.
      session.predicted_end = end;
      retimings_.push_back(Retiming{id, end});
      obs::inc(retimings_emitted_);
    }
  }
}

std::vector<util::Seconds> SharedFabricTimer::inflight_predicted_ends() const {
  std::vector<util::Seconds> ends;
  ends.reserve(open_sessions_.size());
  for (const SessionId id : open_sessions_) {
    const Session& session = sessions_[id];
    if (session.has_step) ends.push_back(session.predicted_end);
  }
  return ends;
}

std::optional<util::Seconds> SharedFabricTimer::predict_step_completion(
    const coll::Schedule& schedule, std::size_t step, util::Bytes payload,
    util::Seconds now) const {
  if (step >= schedule.num_steps()) return std::nullopt;
  if (schedule.num_nodes() > cluster_->num_hosts()) return std::nullopt;
  if (now < network_.now()) return std::nullopt;

  probe_.fresh = false;
  step_flows(schedule, step, payload, probe_.flows);
  if (probe_.flows.empty()) return now;  // flow-less step completes instantly
  // The clone carries exactly the flows still in flight; advancing IT to
  // `now` instead of the real network keeps the probe side-effect free.
  // The injected flows extend the id map where a begin_step's would land.
  probe_.forward = network_.clone_live(probe_.id_map);
  FlowNetwork& probe = probe_.forward;
  probe.run_until(now);
  const std::size_t first = probe_.id_map.size();
  for (const StepFlow& flow : probe_.flows) {
    probe_.id_map.push_back(
        probe.add_flow(cluster_->route(flow.src, flow.dst), flow.bytes));
  }
  probe.run();
  ++forward_runs_;
  util::Seconds end = now;
  for (std::size_t i = first; i < probe_.id_map.size(); ++i) {
    end = std::max(end, probe.completion_time(probe_.id_map[i]));
  }
  probe_.now = now;
  probe_.fresh = true;
  return end;
}

void SharedFabricTimer::close_session(SessionId session_id,
                                      util::Seconds now) {
  WRHT_REQUIRE(session_id < sessions_.size() && sessions_[session_id].open,
               "SharedFabricTimer: close of unknown session " << session_id);
  Session& session = sessions_[session_id];
  probe_.fresh = false;
  network_.run_until(std::max(now, network_.now()));
  log_advance(network_.now());
  finalize_step(session_id);
  session.open = false;
  const auto it = std::lower_bound(open_sessions_.begin(),
                                   open_sessions_.end(), session_id);
  WRHT_CHECK(it != open_sessions_.end() && *it == session_id,
             "SharedFabricTimer: open-session index lost session "
                 << session_id);
  open_sessions_.erase(it);
  retire_drained();
  publish_utilization();
}

void SharedFabricTimer::retire_drained() {
  FlowId floor = kNoFlow;
  for (const SessionId id : open_sessions_) {
    const Session& session = sessions_[id];
    if (session.has_step && !session.inflight.empty()) {
      floor = std::min(floor, session.inflight.front());
    }
  }
  network_.retire_done_below(floor);
}

std::vector<SharedFabricTimer::Retiming> SharedFabricTimer::take_retimings() {
  std::vector<Retiming> out = std::move(retimings_);
  retimings_.clear();
  return out;
}

std::vector<double> SharedFabricTimer::link_peak_utilization() const {
  std::vector<double> peaks(network_.num_links());
  for (std::size_t l = 0; l < peaks.size(); ++l) {
    peaks[l] = network_.link_peak_utilization(static_cast<LinkId>(l));
  }
  return peaks;
}

SharedFabricTimer::Verdict SharedFabricTimer::replay_log(
    FlowNetwork& replay) const {
  // The replay network numbers flows from 0 in injection order, and flows_
  // holds the epoch's flows in exactly that order: log flow i is replay
  // flow i.
  for (const LoggedOp& op : ops_) {
    replay.run_until(op.time);
    if (op.step < 0) continue;
    const LoggedStep& logged = steps_[static_cast<std::size_t>(op.step)];
    for (std::uint32_t i = 0; i < logged.num_flows; ++i) {
      const StepFlow& flow = flows_[logged.first_flow + i];
      replay.add_flow(cluster_->route(flow.src, flow.dst), flow.bytes);
    }
  }
  replay.run();  // drains nothing on a closed epoch

  Verdict verdict;
  for (const LoggedStep& logged : steps_) {
    ++verdict.checked;
    if (!logged.finalized) {
      ++verdict.mismatches;
      continue;
    }
    util::Seconds end = logged.start;
    for (std::uint32_t i = 0; i < logged.num_flows; ++i) {
      end = std::max(end, replay.completion_time(logged.first_flow + i));
    }
    if (end != logged.end) ++verdict.mismatches;
  }
  return verdict;
}

std::uint64_t SharedFabricTimer::verify_replay() const {
  FlowNetwork tail = cluster_->make_network();
  return closed_mismatches_ + drained_unfinalized_ +
         replay_log(tail).mismatches;
}

}  // namespace wrht::elec
