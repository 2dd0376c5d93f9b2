// E5: zoom-out evaluation vs per-level materialization (paper Sec. 4:
// "It may be infeasible to create variants of the workflow repository,
// one for each privilege/privacy setting, due to high space overhead.
// Instead, the information must be hidden on-the-fly, which usually
// leads to processing overhead.")
//
// Expected shape: on-the-fly zoom-out costs more per query, while
// materializing one collapsed view per level multiplies space by the
// number of levels; the crossover depends on the query rate.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>

#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/provenance/exec_view.h"
#include "src/query/zoom_out.h"
#include "src/repo/workload.h"
#include "src/workflow/hierarchy.h"

namespace {

using namespace paw;

struct World {
  std::unique_ptr<Specification> spec;
  ExpansionHierarchy hierarchy;
  std::unique_ptr<Execution> exec;
};

World BuildWorld(int depth, uint64_t seed) {
  Rng rng(seed);
  WorkloadParams params;
  params.depth = depth;
  params.modules_per_workflow = 4;
  params.composite_prob = 0.6;
  params.max_level = depth;
  World world;
  auto spec = GenerateSpec(params, &rng, "world");
  world.spec = std::make_unique<Specification>(std::move(spec).value());
  world.hierarchy = ExpansionHierarchy::Build(*world.spec);
  auto exec = GenerateExecution(*world.spec, &rng);
  world.exec = std::make_unique<Execution>(std::move(exec).value());
  return world;
}

/// Rough bytes of one collapsed view (nodes + edges + item lists).
int64_t ViewBytes(const ExecView& view) {
  int64_t bytes = view.num_nodes() *
                  static_cast<int64_t>(sizeof(ExecViewNode));
  for (NodeIndex u = 0; u < view.num_nodes(); ++u) {
    for (NodeIndex v : view.OutNeighbors(u)) {
      bytes += 16;
      bytes += static_cast<int64_t>(view.ItemsOn(u, v).size()) * 4;
    }
  }
  return bytes;
}

void TableE5() {
  std::printf(
      "=== E5: on-the-fly zoom-out vs per-level materialization ===\n"
      "%-7s %-8s %-14s %-16s %-18s\n",
      "depth", "levels", "zoomout(us)", "lookup(us)",
      "materialized(KB)");
  for (int depth : {2, 3, 4, 5, 6}) {
    World world = BuildWorld(depth, 11);
    PolicySet policy;  // level enforcement only
    const int levels = depth + 1;

    // On-the-fly: collapse per query.
    Timer onthefly;
    constexpr int kQueries = 50;
    for (int q = 0; q < kQueries; ++q) {
      int level = q % levels;
      auto result =
          ZoomOutExecution(*world.exec, world.hierarchy, policy, level);
      benchmark::DoNotOptimize(result);
    }
    double fly_us = onthefly.ElapsedMicros() / kQueries;

    // Materialized: build one view per level once, then lookups.
    std::map<int, std::unique_ptr<ExecView>> materialized;
    int64_t bytes = 0;
    for (int level = 0; level < levels; ++level) {
      Prefix p = world.hierarchy.AccessPrefix(*world.spec, level);
      auto view = CollapseExecution(*world.exec, world.hierarchy, p);
      bytes += ViewBytes(view.value());
      materialized[level] =
          std::make_unique<ExecView>(std::move(view).value());
    }
    Timer lookup;
    int64_t touched = 0;
    for (int q = 0; q < kQueries; ++q) {
      const ExecView& v = *materialized[q % levels];
      touched += v.num_nodes();
    }
    benchmark::DoNotOptimize(touched);
    double lookup_us = lookup.ElapsedMicros() / kQueries;

    std::printf("%-7d %-8d %-14.1f %-16.3f %-18.1f\n", depth, levels,
                fly_us, lookup_us, bytes / 1024.0);
  }
  std::printf("\n");
}

void BM_ZoomOutExecution(benchmark::State& state) {
  World world = BuildWorld(static_cast<int>(state.range(0)), 13);
  PolicySet policy;
  int level = 1;
  for (auto _ : state) {
    auto result =
        ZoomOutExecution(*world.exec, world.hierarchy, policy, level);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ZoomOutExecution)->Arg(2)->Arg(4)->Arg(6);

void BM_ZoomOutToLevel(benchmark::State& state) {
  World world = BuildWorld(static_cast<int>(state.range(0)), 13);
  for (auto _ : state) {
    auto result = ZoomOutToLevel(*world.spec, world.hierarchy,
                                 world.hierarchy.FullPrefix(), 1);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ZoomOutToLevel)->Arg(2)->Arg(4)->Arg(6);

}  // namespace

int main(int argc, char** argv) {
  TableE5();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
