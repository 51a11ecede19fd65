#include "runtime/substrate.hpp"

namespace wrht::runtime {

const char* renegotiation_kind_name(RenegotiationRequest::Kind kind) {
  switch (kind) {
    case RenegotiationRequest::Kind::kResume:
      return "resume";
    case RenegotiationRequest::Kind::kGrow:
      return "grow";
    case RenegotiationRequest::Kind::kShrink:
      return "shrink";
    case RenegotiationRequest::Kind::kEvict:
      return "evict";
    case RenegotiationRequest::Kind::kRestart:
      return "restart";
  }
  return "?";
}

// Renegotiation defaults: a substrate that does not opt in through caps()
// simply declines every request kind, and the what-if probe reports the
// plain free capacity (releasing nothing frees nothing extra).

RenegotiationOutcome ExecutionSubstrate::renegotiate(
    SubstrateExecution*, const RenegotiationRequest&) {
  return {};
}

std::uint32_t ExecutionSubstrate::free_grant_if_kept(const SubstrateExecution&,
                                                     std::uint32_t) const {
  return largest_free_grant();
}

util::Seconds ExecutionSubstrate::predict_completion(
    const std::vector<topo::NodeId>& participants, util::Bytes payload,
    std::uint32_t grant, util::Seconds now) const {
  // No congestion signal to fold in: the quiet run time, starting now.
  return now + predict_makespan(participants, payload, grant);
}

}  // namespace wrht::runtime
