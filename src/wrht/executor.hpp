// Runs an annotated schedule on the optical ring DES and bridges its
// functional content back to the coll:: correctness oracle.
#pragma once

#include "optical/network.hpp"
#include "util/units.hpp"
#include "wrht/annotated.hpp"

namespace wrht::core {

/// Convert one annotated step into the DES transfer list for `payload`.
/// Only the single-job DES needs this copy: the multi-tenant runtime times
/// the annotated schedule in place (shifted into its granted band as it
/// reads each λ) through the same optical::transfer_cost.
[[nodiscard]] std::vector<optical::TimedTransfer> timed_step(
    const AnnotatedSchedule& annotated, std::size_t step,
    util::Bytes payload);

/// Execute the whole schedule on `network` (which must have at least
/// annotated.wavelengths_required wavelengths and the right node count).
/// Returns the network-measured timing.
optical::RunResult run_on_optical(const AnnotatedSchedule& annotated,
                                  optical::OpticalRingNetwork& network,
                                  util::Bytes payload);

/// One-call convenience: build a fresh network from `params` and execute.
optical::RunResult run_on_optical(const AnnotatedSchedule& annotated,
                                  const optical::OpticalParams& params,
                                  util::Bytes payload);

}  // namespace wrht::core
