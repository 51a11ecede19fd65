// google-benchmark micro-benchmarks of schedule construction: how fast can
// the library build Wrht and baseline schedules?  Relevant because training
// frameworks rebuild schedules when elasticity changes the world size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "coll/algorithms.hpp"
#include "optical/assign.hpp"
#include "optical/spectrum.hpp"
#include "util/random.hpp"
#include "wrht/builder.hpp"
#include "wrht/striping.hpp"

namespace {

void BM_BuildWrht(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  wrht::core::WrhtParams params;
  params.num_wavelengths = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wrht::core::build_wrht(n, params));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BuildWrht)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Complexity(benchmark::oN);

void BM_BuildRingAllReduce(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wrht::coll::ring_allreduce(n));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BuildRingAllReduce)->Arg(64)->Arg(256)->Arg(1024)
    ->Complexity(benchmark::oNSquared);

void BM_BuildRecursiveDoubling(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wrht::coll::recursive_doubling(n));
  }
}
BENCHMARK(BM_BuildRecursiveDoubling)->Arg(64)->Arg(1024);

void BM_PredictedSteps(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wrht::core::predicted_steps(n, wrht::core::default_group_size(n, 64),
                                    64));
  }
}
BENCHMARK(BM_PredictedSteps)->Arg(1024)->Arg(65536);

void BM_ApplyStriping(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  wrht::core::WrhtParams params;
  params.num_wavelengths = 64;
  const wrht::core::WrhtBuild build = wrht::core::build_wrht(n, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wrht::core::apply_striping(
        build.annotated, 64, wrht::util::megabytes(100)));
  }
}
BENCHMARK(BM_ApplyStriping)->Arg(64)->Arg(256);

// Seeded arcs of up to a quarter ring, either direction, some wrapping.
std::vector<wrht::topo::Arc> random_arcs(std::uint32_t n, std::size_t count) {
  wrht::util::Rng rng(n);
  std::vector<wrht::topo::Arc> arcs(count);
  for (wrht::topo::Arc& arc : arcs) {
    arc.direction = rng.next_below(2) == 0
                        ? wrht::topo::Direction::kClockwise
                        : wrht::topo::Direction::kCounterClockwise;
    arc.first = static_cast<wrht::topo::SpanId>(rng.next_below(n));
    arc.length = 1 + static_cast<std::uint32_t>(rng.next_below(n / 4));
  }
  return arcs;
}

// First Fit probe on a map whose lower half of the spectrum is taken on
// every span of the clockwise waveguide, so each clockwise probe scans
// W/2 wavelengths before it finds one.
void BM_SpectrumFirstFree(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto w = static_cast<std::uint32_t>(state.range(1));
  wrht::optical::SpectrumMap spectrum(n, w);
  for (std::uint32_t lambda = 0; lambda < w / 2; ++lambda) {
    spectrum.reserve({wrht::topo::Direction::kClockwise, 0, n}, lambda);
  }
  const std::vector<wrht::topo::Arc> arcs = random_arcs(n, 256);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectrum.first_free(arcs[i]));
    i = (i + 1) % arcs.size();
  }
}
BENCHMARK(BM_SpectrumFirstFree)->ArgsProduct({{64, 128, 1024}, {8, 64, 256}});

// The runtime's per-cell traffic: claim one wavelength along an arc, then
// give it back.
void BM_SpectrumReserveRelease(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto w = static_cast<std::uint32_t>(state.range(1));
  wrht::optical::SpectrumMap spectrum(n, w);
  const std::vector<wrht::topo::Arc> arcs = random_arcs(n, 256);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto lambda = static_cast<wrht::optical::WavelengthId>(i % w);
    benchmark::DoNotOptimize(spectrum.try_reserve(arcs[i], lambda));
    spectrum.release(arcs[i], lambda);
    i = (i + 1) % arcs.size();
  }
}
BENCHMARK(BM_SpectrumReserveRelease)
    ->ArgsProduct({{64, 128, 1024}, {8, 64, 256}});

// Longest-first First Fit over one WRHT reduce step's arcs: every node
// sends to the middle representative of its group of 2W+1.
void BM_AssignLongestFirst(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto w = static_cast<std::uint32_t>(state.range(1));
  const wrht::topo::RingTopology ring(n);
  const std::uint32_t m = wrht::core::default_group_size(n, w);
  std::vector<wrht::topo::Arc> arcs;
  for (std::uint32_t base = 0; base + 1 < n; base += m) {
    const std::uint32_t size = std::min(m, n - base);
    const std::uint32_t rep = base + size / 2;
    for (std::uint32_t node = base; node < base + size; ++node) {
      if (node == rep) continue;
      arcs.push_back(ring.arc(node, rep,
                              node < rep
                                  ? wrht::topo::Direction::kClockwise
                                  : wrht::topo::Direction::kCounterClockwise));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wrht::optical::assign_wavelengths_longest_first(ring, arcs, w));
  }
}
BENCHMARK(BM_AssignLongestFirst)->ArgsProduct({{64, 128, 1024}, {8, 64, 256}});

}  // namespace

BENCHMARK_MAIN();
