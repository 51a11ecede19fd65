#include "runtime/admission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace wrht::runtime {

const char* fairness_policy_name(FairnessPolicy policy) {
  switch (policy) {
    case FairnessPolicy::kFifo:
      return "fifo";
    case FairnessPolicy::kSmallestFirst:
      return "smallest-first";
    case FairnessPolicy::kWeightedFair:
      return "weighted-fair";
    case FairnessPolicy::kPriorityPreempt:
      return "priority-preempt";
  }
  return "?";
}

QueueEntry JobQueue::take(std::size_t index) {
  WRHT_REQUIRE(index < size(), "JobQueue: take(" << index << ") out of range");
  if (flat_ && index == 0) {
    QueueEntry entry = std::move(entries_[head_]);
    ++head_;
    // Amortized prefix compaction: erase the dead front only once it is
    // both sizable and at least half the storage, so a million-job backlog
    // pays O(1) per head take instead of O(backlog).
    if (head_ >= 64 && head_ * 2 >= entries_.size()) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return entry;
  }
  const std::size_t pos = head_ + index;
  QueueEntry entry = std::move(entries_[pos]);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(pos));
  return entry;
}

bool JobQueue::release_hold(JobId id) {
  for (std::size_t i = head_; i < entries_.size(); ++i) {
    if (entries_[i].id == id) {
      entries_[i].held = false;
      return true;
    }
  }
  return false;
}

namespace {

/// Clamp a candidate grant into [min, requested] given the widest free run.
/// Returns 0 when even the minimum does not fit.
std::uint32_t feasible_grant(const QueueEntry& job, std::uint32_t share,
                             std::uint32_t largest_free_block) {
  const std::uint32_t want =
      std::clamp(share, job.min_wavelengths, job.requested_wavelengths);
  const std::uint32_t grant = std::min(want, largest_free_block);
  return grant >= job.min_wavelengths ? grant : 0;
}

std::optional<AdmissionDecision> admit_fifo(const JobQueue& queue,
                                            std::uint32_t largest_free_block) {
  // Strict arrival order: only the oldest eligible entry may start (a held
  // entry is waiting out its fuse window by choice, an electrically-pinned
  // one is not asking for spectrum at all — neither admits nor blocks the
  // line).
  std::optional<std::size_t> head;
  if (queue.flat()) {
    // Entries are stored in seq order (JobQueue::push invariant), so the
    // first eligible entry IS the min-seq one — identical pick, O(prefix of
    // held/pinned entries) instead of O(queue).
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (optically_eligible(queue.at(i))) {
        head = i;
        break;
      }
    }
  } else {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (!optically_eligible(queue.at(i))) continue;
      if (!head || queue.at(i).seq < queue.at(*head).seq) head = i;
    }
  }
  if (!head) return std::nullopt;
  const std::uint32_t grant = feasible_grant(
      queue.at(*head), queue.at(*head).requested_wavelengths,
      largest_free_block);
  if (grant == 0) return std::nullopt;
  return AdmissionDecision{*head, grant};
}

std::optional<AdmissionDecision> admit_priority(
    const JobQueue& queue, std::uint32_t largest_free_block,
    util::Seconds now, util::Seconds aging_half_life) {
  // Highest priority (ties on arrival) owns the line, exactly like FIFO's
  // head — lower-priority jobs never slip past it into a band the runtime
  // is preempting for it.
  const std::optional<std::size_t> head =
      priority_head(queue, now, aging_half_life);
  if (!head) return std::nullopt;
  const std::uint32_t grant = feasible_grant(
      queue.at(*head), queue.at(*head).requested_wavelengths,
      largest_free_block);
  if (grant == 0) return std::nullopt;
  return AdmissionDecision{*head, grant};
}

std::optional<AdmissionDecision> admit_smallest(
    const JobQueue& queue, std::uint32_t largest_free_block) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const QueueEntry& job = queue.at(i);
    if (!optically_eligible(job)) continue;
    if (feasible_grant(job, job.requested_wavelengths, largest_free_block) ==
        0) {
      continue;
    }
    if (!best || job.payload < queue.at(*best).payload ||
        (job.payload == queue.at(*best).payload &&
         job.seq < queue.at(*best).seq)) {
      best = i;
    }
  }
  if (!best) return std::nullopt;
  const QueueEntry& job = queue.at(*best);
  return AdmissionDecision{
      *best,
      feasible_grant(job, job.requested_wavelengths, largest_free_block)};
}

std::optional<AdmissionDecision> admit_weighted(
    const JobQueue& queue, std::uint32_t largest_free_block,
    std::uint32_t free_total) {
  double total_weight = 0.0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (!optically_eligible(queue.at(i))) continue;
    total_weight += std::max(queue.at(i).weight, 0.0);
  }
  if (total_weight <= 0.0) return admit_fifo(queue, largest_free_block);

  // Heaviest queued job first, with a band proportional to its weight share
  // of the currently free spectrum — lighter peers admitted right after get
  // their own proportional slice instead of finding the pool drained.
  std::optional<std::size_t> best;
  std::uint32_t best_grant = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const QueueEntry& job = queue.at(i);
    if (!optically_eligible(job)) continue;
    const double fraction = std::max(job.weight, 0.0) / total_weight;
    const auto share = static_cast<std::uint32_t>(
        static_cast<double>(free_total) * fraction);
    const std::uint32_t grant =
        feasible_grant(job, std::max(share, 1u), largest_free_block);
    if (grant == 0) continue;
    const bool wins =
        !best || job.weight > queue.at(*best).weight ||
        (job.weight == queue.at(*best).weight && job.seq < queue.at(*best).seq);
    if (wins) {
      best = i;
      best_grant = grant;
    }
  }
  if (!best) return std::nullopt;
  return AdmissionDecision{*best, best_grant};
}

}  // namespace

std::int32_t aged_priority(std::int32_t priority, util::Seconds waiting_since,
                           util::Seconds now, util::Seconds half_life) {
  if (half_life.value() <= 0.0) return priority;
  const double wait = (now - waiting_since).value();
  if (wait <= 0.0) return priority;
  // One class per half-life of wait, capped: the boost must eventually top
  // out (so a forgotten tenant cannot overflow the type), but 64 classes is
  // far above any real priority spread in the system.
  const double classes = std::min(std::floor(wait / half_life.value()), 64.0);
  const std::int64_t aged = static_cast<std::int64_t>(priority) +
                            static_cast<std::int64_t>(classes);
  return static_cast<std::int32_t>(
      std::min<std::int64_t>(aged, std::numeric_limits<std::int32_t>::max()));
}

std::optional<std::size_t> priority_head(const JobQueue& queue,
                                         util::Seconds now,
                                         util::Seconds aging_half_life) {
  return priority_head_if(queue, now, aging_half_life, optically_eligible);
}

std::optional<AdmissionDecision> next_admission(
    const JobQueue& queue, FairnessPolicy policy,
    std::uint32_t largest_free_block, std::uint32_t free_total,
    util::Seconds now, util::Seconds aging_half_life) {
  if (queue.empty() || largest_free_block == 0) return std::nullopt;
  switch (policy) {
    case FairnessPolicy::kFifo:
      return admit_fifo(queue, largest_free_block);
    case FairnessPolicy::kSmallestFirst:
      return admit_smallest(queue, largest_free_block);
    case FairnessPolicy::kWeightedFair:
      return admit_weighted(queue, largest_free_block, free_total);
    case FairnessPolicy::kPriorityPreempt:
      return admit_priority(queue, largest_free_block, now, aging_half_life);
  }
  return std::nullopt;
}

}  // namespace wrht::runtime
