// F1-F5: executable reproduction of every figure in the paper, plus
// timings of the operations behind them.
//
// The paper is a vision paper with illustrative figures rather than
// measured plots; this binary regenerates each figure as a machine-checked
// artifact and reports PASS/FAIL per fact (see EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "src/provenance/exec_view.h"
#include "src/query/keyword_search.h"
#include "src/repo/disease.h"
#include "src/workflow/hierarchy.h"
#include "src/workflow/view.h"

namespace {

using namespace paw;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void ReproduceFigures() {
  auto spec_result = BuildDiseaseSpec();
  if (!spec_result.ok()) {
    std::printf("FATAL: %s\n", spec_result.status().ToString().c_str());
    ++g_failures;
    return;
  }
  const Specification& spec = spec_result.value();
  ExpansionHierarchy h = ExpansionHierarchy::Build(spec);
  auto W = [&](const char* c) { return spec.FindWorkflow(c).value(); };
  auto M = [&](const char* c) { return spec.FindModule(c).value(); };

  std::printf("== F1: Fig. 1 specification ==\n");
  Check(spec.num_workflows() == 4, "4 workflows W1..W4");
  Check(spec.num_modules() == 17, "17 modules (I, O, M1..M15)");
  Check(spec.module(M("M1")).expansion == W("W2"), "tau(M1) = W2");
  Check(spec.module(M("M2")).expansion == W("W3"), "tau(M2) = W3");
  Check(spec.module(M("M4")).expansion == W("W4"), "tau(M4) = W4");

  std::printf("== F3: Fig. 3 expansion hierarchy ==\n");
  Check(h.root() == W("W1"), "root is W1");
  Check(h.Children(W("W1")).size() == 2, "W1 has two children");
  Check(h.Parent(W("W4")) == W("W2"), "W4 under W2");
  Check(h.Height() == 2, "height 2");

  std::printf("== full expansion facts (Sec. 2 prose) ==\n");
  auto full = FullExpansion(spec, h);
  Check(full.ok(), "full expansion builds");
  if (full.ok()) {
    auto has_edge = [&](const char* a, const char* b) {
      auto ia = full.value().IndexOf(M(a));
      auto ib = full.value().IndexOf(M(b));
      return ia.ok() && ib.ok() &&
             full.value().graph().HasEdge(ia.value(), ib.value());
    };
    Check(full.value().num_visible() == 14, "I, O, M3, M5-M15 visible");
    Check(has_edge("M3", "M5"), "edge M3 -> M5");
    Check(has_edge("M8", "M9"), "edge M8 -> M9");
  }

  std::printf("== F4: Fig. 4 execution ==\n");
  auto exec = RunDiseaseExecution(spec);
  Check(exec.ok(), "execution runs");
  if (exec.ok()) {
    const Execution& e = exec.value();
    Check(e.num_nodes() == 20, "20 provenance nodes");
    Check(e.num_items() == 20, "data items d0..d19");
    const char* codes[] = {"",   "M1", "M3",  "M4",  "M5",  "M6",
                           "M7", "M8", "M2",  "M9",  "M12", "M13",
                           "M14", "M10", "M11", "M15"};
    bool ids_ok = true;
    for (int s = 1; s <= 15; ++s) {
      auto n = e.FindByProcess(s);
      if (!n.ok() ||
          spec.module(e.node(n.value()).module).code != codes[s]) {
        ids_ok = false;
      }
    }
    Check(ids_ok, "process ids S1..S15 match the figure exactly");
    Check(e.item(DataItemId(19)).label == "prognosis",
          "d19 is the prognosis");

    std::printf("== F2: Fig. 2 provenance view under {W1} ==\n");
    auto view = CollapseExecution(e, h, h.RootPrefix());
    Check(view.ok() && view.value().num_nodes() == 4,
          "collapsed view has I, S1:M1, S8:M2, O");
    Check(view.ok() && view.value().num_edges() == 4,
          "collapsed view has 4 edges");
  }

  std::printf("== F5: Fig. 5 keyword query ==\n");
  auto minimal = MinimalCoveringPrefixes(
      spec, h, {"database queries", "disorder risk"}, /*level=*/2);
  Check(minimal.ok() && minimal.value().size() == 1,
        "unique minimal view");
  if (minimal.ok() && minimal.value().size() == 1) {
    Check(minimal.value()[0] == (Prefix{W("W1"), W("W2"), W("W4")}),
          "minimal view is {W1, W2, W4} (M1, M4 expanded; M2 collapsed)");
  }
  std::printf("figure reproduction: %s (%d failure(s))\n\n",
              g_failures == 0 ? "ALL PASS" : "FAILURES", g_failures);
}

void BM_BuildDiseaseSpec(benchmark::State& state) {
  for (auto _ : state) {
    auto spec = BuildDiseaseSpec();
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_BuildDiseaseSpec);

void BM_RunDiseaseExecution(benchmark::State& state) {
  auto spec = BuildDiseaseSpec().value();
  for (auto _ : state) {
    auto exec = RunDiseaseExecution(spec);
    benchmark::DoNotOptimize(exec);
  }
}
BENCHMARK(BM_RunDiseaseExecution);

void BM_CollapseToFig2(benchmark::State& state) {
  auto spec = BuildDiseaseSpec().value();
  ExpansionHierarchy h = ExpansionHierarchy::Build(spec);
  auto exec = RunDiseaseExecution(spec).value();
  for (auto _ : state) {
    auto view = CollapseExecution(exec, h, h.RootPrefix());
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_CollapseToFig2);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== bench_figures: F1-F5 reproduction ===\n");
  ReproduceFigures();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return g_failures == 0 ? 0 : 1;
}
