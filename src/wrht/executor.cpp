#include "wrht/executor.hpp"

#include "util/check.hpp"

namespace wrht::core {

std::vector<optical::TimedTransfer> timed_step(
    const AnnotatedSchedule& annotated, std::size_t step,
    util::Bytes payload) {
  const coll::Step& s = annotated.schedule.steps()[step];
  WRHT_CHECK(annotated.paths[step].size() == s.transfers.size(),
             "timed_step: annotation out of sync at step " << step);
  std::vector<optical::TimedTransfer> out;
  out.reserve(s.transfers.size());
  for (std::size_t i = 0; i < s.transfers.size(); ++i) {
    const coll::Transfer& t = s.transfers[i];
    const PathAssignment& path = annotated.paths[step][i];
    out.push_back(optical::TimedTransfer{
        t.src, t.dst, annotated.schedule.chunk_bytes(payload, t.chunk),
        path.arc, path.lambdas});
  }
  return out;
}

optical::RunResult run_on_optical(const AnnotatedSchedule& annotated,
                                  optical::OpticalRingNetwork& network,
                                  util::Bytes payload) {
  WRHT_REQUIRE(network.ring().num_nodes() == annotated.schedule.num_nodes(),
               "run_on_optical: node count mismatch ("
                   << network.ring().num_nodes() << " vs "
                   << annotated.schedule.num_nodes() << ")");
  WRHT_REQUIRE(network.params().wdm.num_wavelengths >=
                   annotated.wavelengths_required,
               "run_on_optical: schedule needs "
                   << annotated.wavelengths_required
                   << " wavelengths, network has "
                   << network.params().wdm.num_wavelengths);
  std::vector<std::vector<optical::TimedTransfer>> steps;
  steps.reserve(annotated.schedule.num_steps());
  for (std::size_t s = 0; s < annotated.schedule.num_steps(); ++s) {
    steps.push_back(timed_step(annotated, s, payload));
  }
  return network.execute_steps(steps);
}

optical::RunResult run_on_optical(const AnnotatedSchedule& annotated,
                                  const optical::OpticalParams& params,
                                  util::Bytes payload) {
  optical::OpticalRingNetwork network(annotated.schedule.num_nodes(), params);
  return run_on_optical(annotated, network, payload);
}

}  // namespace wrht::core
