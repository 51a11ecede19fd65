#include "wrht/analysis.hpp"

#include <algorithm>

#include "util/math.hpp"

namespace wrht::core {

WrhtAnalysis analyze(const WrhtBuild& build, util::Bytes probe_payload) {
  WrhtAnalysis a;
  a.num_nodes = build.annotated.schedule.num_nodes();
  a.group_size_m = build.group_size_m;
  a.final_rep_count_mstar = build.final_rep_count_mstar;
  a.merged_with_all_to_all = build.merged_with_all_to_all;
  a.tree_levels = static_cast<std::uint32_t>(build.reduce_levels.size());
  a.total_steps =
      static_cast<std::uint32_t>(build.annotated.schedule.num_steps());
  const std::uint32_t log_term =
      util::ceil_log(build.group_size_m, a.num_nodes);
  a.paper_formula_steps =
      2 * log_term - (build.merged_with_all_to_all ? 1 : 0);
  a.ring_steps = 2 * (a.num_nodes - 1);
  a.lambda_per_step = build.annotated.lambda_per_step;
  a.max_lambda = build.annotated.wavelengths_required;
  a.group_lambda_bound = build.group_size_m / 2;
  a.all_to_all_lambda_bound =
      build.merged_with_all_to_all
          ? all_to_all_wavelength_bound(build.final_rep_count_mstar)
          : 0;
  a.probe_payload = probe_payload;
  a.total_traffic = build.annotated.schedule.total_traffic(probe_payload);
  return a;
}

std::string WrhtAnalysis::report() const {
  std::string out;
  out += "Wrht schedule for N=" + std::to_string(num_nodes) + "\n";
  out += "  group size m        : " + std::to_string(group_size_m) + "\n";
  out += "  tree levels         : " + std::to_string(tree_levels) + "\n";
  out += "  final reps (m*)     : " + std::to_string(final_rep_count_mstar) +
         (merged_with_all_to_all ? "  (merged via all-to-all)\n"
                                 : "  (reduced to root)\n");
  out += "  steps               : " + std::to_string(total_steps) +
         "  (paper formula: " + std::to_string(paper_formula_steps) +
         ", ring: " + std::to_string(ring_steps) + ")\n";
  out += "  wavelengths         : " + std::to_string(max_lambda) +
         "  (group bound floor(m/2)=" + std::to_string(group_lambda_bound);
  if (merged_with_all_to_all) {
    out += ", all-to-all bound ceil(m*^2/8)=" +
           std::to_string(all_to_all_lambda_bound);
  }
  out += ")\n";
  out += "  lambdas per step    :";
  for (const std::uint32_t l : lambda_per_step) {
    out += " ";
    out += std::to_string(l);
  }
  out += "\n";
  out += "  traffic @" + util::to_string(probe_payload) + "  : " +
         util::to_string(total_traffic) + "\n";
  return out;
}

}  // namespace wrht::core
