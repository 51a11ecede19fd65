#include "optical/assign.hpp"

#include <algorithm>
#include <numeric>

namespace wrht::optical {

const char* fit_policy_name(FitPolicy policy) {
  return policy == FitPolicy::kFirstFit ? "first_fit" : "best_fit";
}

namespace {

std::optional<WavelengthId> pick(const SpectrumMap& spectrum,
                                 const topo::Arc& arc, FitPolicy policy) {
  if (policy == FitPolicy::kFirstFit) return spectrum.first_free(arc);
  // Best Fit: the feasible wavelength that is already the most used across
  // the ring (pack tightly, keep fresh wavelengths for long arcs).
  std::optional<WavelengthId> best;
  std::uint32_t best_usage = 0;
  for (WavelengthId lambda = 0; lambda < spectrum.num_wavelengths(); ++lambda) {
    if (!spectrum.is_free(arc, lambda)) continue;
    const std::uint32_t u = spectrum.usage(lambda);
    if (!best.has_value() || u > best_usage) {
      best = lambda;
      best_usage = u;
    }
  }
  return best;
}

AssignmentResult assign_in_order(const topo::RingTopology& ring,
                                 const std::vector<topo::Arc>& arcs,
                                 const std::vector<std::size_t>& order,
                                 std::uint32_t max_wavelengths,
                                 FitPolicy policy) {
  AssignmentResult result;
  result.lambda.assign(arcs.size(), 0);
  // Per-thread scratch map, re-targeted per call so a warm assignment does
  // not allocate.
  thread_local SpectrumMap spectrum(ring.num_spans(), 1);
  spectrum.reset(ring.num_spans(), std::max(1u, max_wavelengths));
  for (const std::size_t i : order) {
    const std::optional<WavelengthId> lambda =
        pick(spectrum, arcs[i], policy);
    if (!lambda.has_value()) {
      result.ok = false;
      result.failed_arc = i;
      return result;
    }
    spectrum.reserve(arcs[i], *lambda);
    result.lambda[i] = *lambda;
    result.wavelengths_used =
        std::max(result.wavelengths_used, *lambda + 1);
  }
  result.ok = true;
  return result;
}

}  // namespace

AssignmentResult assign_wavelengths(const topo::RingTopology& ring,
                                    const std::vector<topo::Arc>& arcs,
                                    std::uint32_t max_wavelengths,
                                    FitPolicy policy) {
  std::vector<std::size_t> order(arcs.size());
  std::iota(order.begin(), order.end(), 0);
  return assign_in_order(ring, arcs, order, max_wavelengths, policy);
}

AssignmentResult assign_wavelengths_longest_first(
    const topo::RingTopology& ring, const std::vector<topo::Arc>& arcs,
    std::uint32_t max_wavelengths, FitPolicy policy) {
  std::vector<std::size_t> order(arcs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return arcs[a].length > arcs[b].length;
                   });
  return assign_in_order(ring, arcs, order, max_wavelengths, policy);
}

std::vector<topo::Arc> balanced_all_to_all_arcs(
    const topo::RingTopology& ring, const std::vector<topo::NodeId>& nodes) {
  struct Pair {
    std::size_t row;  // position in the output (row-major ordered pairs)
    topo::NodeId src;
    topo::NodeId dst;
    std::uint32_t shortest;
  };
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (i == j) continue;
      pairs.push_back(Pair{pairs.size(), nodes[i], nodes[j],
                           ring.shortest_distance(nodes[i], nodes[j])});
    }
  }

  // Longest pairs placed first: they are the hardest to balance.
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pairs[a].shortest > pairs[b].shortest;
                   });

  // Per-(direction, span) load accumulated so far.
  std::vector<std::uint32_t> load(std::size_t{2} * ring.num_spans(), 0);
  const auto span_cell = [&](const topo::Arc& arc, topo::SpanId span) {
    return static_cast<std::size_t>(arc.direction) * ring.num_spans() + span;
  };
  struct Candidate {
    topo::Arc arc;
    std::uint32_t peak = 0;   // max load along the arc if chosen
    std::uint64_t total = 0;  // sum of loads along the arc
  };
  const auto evaluate = [&](const topo::Arc& arc) {
    Candidate c{arc, 0, 0};
    for (const topo::SpanId span : ring.spans(arc)) {
      const std::uint32_t l = load[span_cell(arc, span)];
      c.peak = std::max(c.peak, l + 1);
      c.total += l;
    }
    return c;
  };

  std::vector<topo::Arc> arcs(pairs.size());
  for (const std::size_t p : order) {
    const Pair& pair = pairs[p];
    const Candidate cw =
        evaluate(ring.arc(pair.src, pair.dst, topo::Direction::kClockwise));
    const Candidate ccw = evaluate(
        ring.arc(pair.src, pair.dst, topo::Direction::kCounterClockwise));
    // Prefer the lower resulting peak; break ties by lower total load, then
    // by the shorter arc, then clockwise — all deterministic.
    const Candidate* chosen = &cw;
    if (ccw.peak < cw.peak ||
        (ccw.peak == cw.peak &&
         (ccw.total < cw.total ||
          (ccw.total == cw.total && ccw.arc.length < cw.arc.length)))) {
      chosen = &ccw;
    }
    for (const topo::SpanId span : ring.spans(chosen->arc)) {
      ++load[span_cell(chosen->arc, span)];
    }
    arcs[pair.row] = chosen->arc;
  }
  return arcs;
}

}  // namespace wrht::optical
