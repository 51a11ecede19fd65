#include "elec/shared_fabric.hpp"

#include <algorithm>
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

void SharedFabricTimer::finalize_step(SessionId session_id) {
  Session& session = sessions_[session_id];
  if (!session.has_step) return;
  util::Seconds end = session.step_start;
  for (const FlowId flow : session.inflight) {
    WRHT_CHECK(network_.completed(flow),
               "SharedFabricTimer: step boundary before its flows drained "
               "(session "
                   << session_id << " step " << session.step_number << ")");
    end = std::max(end, network_.completion_time(flow));
  }
  if (audit_) {
    LoggedStep& logged = steps_[session.current_step];
    logged.end = end;
    logged.finalized = true;
  }
  session.inflight.clear();
  session.has_step = false;
}

std::optional<util::Seconds> SharedFabricTimer::begin_step(
    SessionId session_id, const coll::Schedule& schedule, std::size_t step,
    util::Bytes payload, util::Seconds now) {
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
  if (audit_) ops_.push_back(LoggedOp{now, -1});
  if (session.has_step) {
    for (const FlowId flow : session.inflight) {
      if (!network_.completed(flow)) return std::nullopt;
    }
    finalize_step(session_id);
  }

  LoggedStep logged;
  logged.session = session_id;
  logged.step = static_cast<std::uint64_t>(step);
  logged.start = now;
  session.current_step = steps_.size();
  session.step_start = now;
  session.step_number = static_cast<std::uint64_t>(step);
  for (const coll::Transfer& t : schedule.steps()[step].transfers) {
    const util::Bytes bytes = schedule.chunk_bytes(payload, t.chunk);
    session.inflight.push_back(
        network_.add_flow(cluster_->route(t.src, t.dst), bytes));
    if (audit_) logged.flows.push_back(LoggedFlow{t.src, t.dst, bytes});
  }
  session.has_step = !session.inflight.empty();
  if (audit_) {
    ops_.push_back(LoggedOp{now, static_cast<std::ptrdiff_t>(steps_.size())});
    steps_.push_back(std::move(logged));
  }
  obs::inc(steps_timed_);
  publish_utilization();

  if (!session.has_step) {
    // A flow-less step (e.g. a barrier round another group participates in)
    // completes instantly; nobody else's sharing changed.
    if (audit_) {
      LoggedStep& empty = steps_[session.current_step];
      empty.end = now;
      empty.finalized = true;
    }
    session.predicted_end = now;
    retire_drained();
    return now;
  }
  session.predicted_end = now;  // repredict overwrites with the real value
  repredict(session_id);
  retire_drained();
  return session.predicted_end;
}

void SharedFabricTimer::repredict(SessionId started) {
  // Forward-run a live-flows-only copy to completion: each in-flight step
  // ends when the last of its flows drains.  The copy shares the real
  // network's arithmetic, so the prediction is the fluid model's answer,
  // not an estimate — it only goes stale if another flow arrives later,
  // and that arrival re-runs this very function.
  std::vector<FlowId> id_map;
  FlowNetwork forward = network_.clone_live(id_map);
  forward.run();
  const FlowId floor = network_.id_floor();
  for (const SessionId id : open_sessions_) {
    Session& session = sessions_[id];
    if (!session.has_step) continue;
    util::Seconds end = session.step_start;
    bool any_live = false;
    for (const FlowId flow : session.inflight) {
      // A flow that already drained on the real network keeps its recorded
      // completion; only still-live flows take the forward prediction.
      const FlowId mapped = id_map[flow - floor];
      if (mapped == kNoFlow) {
        end = std::max(end, network_.completion_time(flow));
      } else {
        any_live = true;
        end = std::max(end, forward.completion_time(mapped));
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

  // The clone carries exactly the flows still in flight; advancing IT to
  // `now` instead of the real network keeps the probe side-effect free.
  std::vector<FlowId> id_map;
  FlowNetwork probe = network_.clone_live(id_map);
  probe.run_until(now);
  std::vector<FlowId> injected;
  for (const coll::Transfer& t : schedule.steps()[step].transfers) {
    injected.push_back(probe.add_flow(cluster_->route(t.src, t.dst),
                                      schedule.chunk_bytes(payload, t.chunk)));
  }
  if (injected.empty()) return now;  // flow-less step completes instantly
  probe.run();
  util::Seconds end = now;
  for (const FlowId flow : injected) {
    end = std::max(end, probe.completion_time(flow));
  }
  return end;
}

void SharedFabricTimer::close_session(SessionId session_id,
                                      util::Seconds now) {
  WRHT_REQUIRE(session_id < sessions_.size() && sessions_[session_id].open,
               "SharedFabricTimer: close of unknown session " << session_id);
  Session& session = sessions_[session_id];
  network_.run_until(std::max(now, network_.now()));
  if (audit_) ops_.push_back(LoggedOp{network_.now(), -1});
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

std::uint64_t SharedFabricTimer::verify_replay() const {
  FlowNetwork replay = cluster_->make_network();
  std::vector<std::vector<FlowId>> replay_ids(steps_.size());
  for (const LoggedOp& op : ops_) {
    replay.run_until(op.time);
    if (op.step < 0) continue;
    const LoggedStep& logged = steps_[static_cast<std::size_t>(op.step)];
    for (const LoggedFlow& flow : logged.flows) {
      replay_ids[static_cast<std::size_t>(op.step)].push_back(
          replay.add_flow(cluster_->route(flow.src, flow.dst), flow.bytes));
    }
  }
  replay.run();  // drains nothing on a fully-closed log

  std::uint64_t mismatches = 0;
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    const LoggedStep& logged = steps_[s];
    if (!logged.finalized) {
      ++mismatches;
      continue;
    }
    util::Seconds end = logged.start;
    for (const FlowId flow : replay_ids[s]) {
      end = std::max(end, replay.completion_time(flow));
    }
    if (end != logged.end) ++mismatches;
  }
  return mismatches;
}

}  // namespace wrht::elec
