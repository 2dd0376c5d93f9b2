// End-to-end and property-based integration tests: generated repositories,
// executions, privacy transforms and queries working together.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/graph/transitive.h"
#include "src/privacy/soundness.h"
#include "src/privacy/structural_privacy.h"
#include "src/provenance/exec_view.h"
#include "src/provenance/lineage.h"
#include "src/query/engine.h"
#include "src/repo/disease.h"
#include "src/repo/workload.h"
#include "src/workflow/serialize.h"
#include "src/workflow/view.h"

namespace paw {
namespace {

// ---- Cross-layer invariants on generated workloads ----

class GeneratedWorldTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedWorldTest, ExecutionMirrorsFullExpansion) {
  // Property: for every generated spec, the execution's atomic
  // activations are exactly the atomic modules of the full expansion.
  Rng rng(GetParam());
  WorkloadParams params;
  params.depth = 2;
  params.modules_per_workflow = 4;
  auto spec = GenerateSpec(params, &rng, "world");
  ASSERT_TRUE(spec.ok());
  ExpansionHierarchy h = ExpansionHierarchy::Build(spec.value());
  auto exec = GenerateExecution(spec.value(), &rng);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  auto full = FullExpansion(spec.value(), h);
  ASSERT_TRUE(full.ok());
  std::vector<int32_t> expanded_atomics;
  for (ModuleId m : full.value().visible_modules()) {
    if (spec.value().module(m).kind == ModuleKind::kAtomic) {
      expanded_atomics.push_back(m.value());
    }
  }
  std::vector<int32_t> executed;
  for (const ExecNode& n : exec.value().nodes()) {
    if (n.kind == ExecNodeKind::kAtomic) executed.push_back(
        n.module.value());
  }
  std::sort(expanded_atomics.begin(), expanded_atomics.end());
  std::sort(executed.begin(), executed.end());
  EXPECT_EQ(expanded_atomics, executed);
}

TEST_P(GeneratedWorldTest, ProcessIdsAreDense) {
  Rng rng(GetParam() + 100);
  WorkloadParams params;
  params.depth = 2;
  auto spec = GenerateSpec(params, &rng, "dense");
  ASSERT_TRUE(spec.ok());
  auto exec = GenerateExecution(spec.value(), &rng);
  ASSERT_TRUE(exec.ok());
  // Activations S1..Sk with no gaps.
  int max_process = 0;
  for (const ExecNode& n : exec.value().nodes()) {
    max_process = std::max(max_process, n.process_id);
  }
  for (int s = 1; s <= max_process; ++s) {
    EXPECT_TRUE(exec.value().FindByProcess(s).ok()) << "S" << s;
  }
}

TEST_P(GeneratedWorldTest, EveryItemHasOneProducerAndFlows) {
  Rng rng(GetParam() + 200);
  WorkloadParams params;
  auto spec = GenerateSpec(params, &rng, "items");
  ASSERT_TRUE(spec.ok());
  auto exec = GenerateExecution(spec.value(), &rng);
  ASSERT_TRUE(exec.ok());
  const Execution& e = exec.value();
  // Each item appears on at least one edge leaving its producer.
  for (const DataItem& d : e.items()) {
    bool found = false;
    for (NodeIndex v : e.graph().OutNeighbors(d.producer.value())) {
      const auto& items = e.ItemsOn(d.producer, ExecNodeId(v));
      if (std::find(items.begin(), items.end(), d.id) != items.end()) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "item d" << d.id.value() << " never flowed";
  }
}

TEST_P(GeneratedWorldTest, CollapseCommutesWithReachabilityHiding) {
  // Property: in a collapsed view, any two visible plain nodes connected
  // in the view are connected in the execution (prefix views of
  // executions are sound).
  Rng rng(GetParam() + 300);
  WorkloadParams params;
  params.depth = 2;
  auto spec = GenerateSpec(params, &rng, "sound");
  ASSERT_TRUE(spec.ok());
  ExpansionHierarchy h = ExpansionHierarchy::Build(spec.value());
  auto exec = GenerateExecution(spec.value(), &rng);
  ASSERT_TRUE(exec.ok());
  auto prefixes = h.EnumeratePrefixes();
  ASSERT_TRUE(prefixes.ok());
  TransitiveClosure real = TransitiveClosure::Compute(exec.value().graph());
  for (const Prefix& p : prefixes.value()) {
    auto view = CollapseExecution(exec.value(), h, p);
    ASSERT_TRUE(view.ok());
    TransitiveClosure vc =
        TransitiveClosure::Compute(view.value().ToDigraph());
    for (NodeIndex a = 0; a < view.value().num_nodes(); ++a) {
      for (NodeIndex b = 0; b < view.value().num_nodes(); ++b) {
        if (a == b) continue;
        if (view.value().node(a).collapsed ||
            view.value().node(b).collapsed) {
          continue;
        }
        if (vc.Reaches(a, b)) {
          EXPECT_TRUE(real.Reaches(view.value().node(a).rep.value(),
                                   view.value().node(b).rep.value()))
              << "prefix view fabricated a path";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedWorldTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- Full pipeline on the paper's example ----

TEST(PipelineTest, SerializeStoreQueryEnforce) {
  // Serialize the disease spec, parse it back, store it, run it, and ask
  // privacy-preserving queries -- the full life of a repository entry.
  auto original = BuildDiseaseSpec();
  ASSERT_TRUE(original.ok());
  auto parsed = ParseSpecification(Serialize(original.value()));
  ASSERT_TRUE(parsed.ok());

  Repository repo;
  int sid =
      repo.AddSpecification(std::move(parsed).value(), DiseasePolicy())
          .value();
  FunctionRegistry fns = BuildDiseaseFunctions();
  auto exec = Execute(repo.entry(sid).spec, fns, DiseaseInputs());
  ASSERT_TRUE(exec.ok());
  ExecutionId eid = repo.AddExecution(sid, std::move(exec).value()).value();

  AccessControl acl;
  PrincipalId analyst = acl.AddPrincipal("analyst", 1, "lab").value();
  QueryEngine engine(repo, acl);

  auto answers = engine.Search(analyst, {"reformat"});
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 1u);

  auto lineage = engine.Lineage(analyst, eid, DataItemId(19));
  ASSERT_TRUE(lineage.ok());
  EXPECT_FALSE(lineage.value().rows.empty());
}

TEST(PipelineTest, StructuralPrivacyOnCollapsedLineage) {
  // Run the Sec. 3 pipeline: take the provenance graph, apply both
  // structural mechanisms to the same sensitive pair, verify the
  // mechanisms' contract (deletion sound, clustering complete) and then
  // repair the clustering.
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  auto exec = RunDiseaseExecution(spec.value());
  ASSERT_TRUE(exec.ok());
  const Execution& e = exec.value();
  // The M13 and M11 activation nodes.
  NodeIndex m13 = e.FindByProcess(11).value().value();
  NodeIndex m11 = e.FindByProcess(14).value().value();

  auto del = HideByEdgeDeletion(e.graph(), {{m13, m11}});
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().metrics.hidden_sensitive, 1);
  EXPECT_TRUE(del.value().metrics.Sound());

  auto clu = HideByClustering(e.graph(), {{m13, m11}});
  ASSERT_TRUE(clu.ok());
  EXPECT_EQ(clu.value().metrics.hidden_sensitive, 1);

  auto repaired = RepairUnsoundClustering(e.graph(),
                                          clu.value().group_of,
                                          clu.value().num_groups);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired.value().report.sound);
}

TEST(PipelineTest, RepeatedExecutionsStaySchedulable) {
  // The paper stresses "privacy guarantees must hold over repeated
  // executions with varied inputs": run the workflow many times and
  // check the schedule (process ids) is input-independent.
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  FunctionRegistry fns = BuildDiseaseFunctions();
  std::vector<std::string> first_labels;
  for (int round = 0; round < 8; ++round) {
    ValueMap inputs = DiseaseInputs();
    inputs["SNPs"] = "rs" + std::to_string(round);
    inputs["lifestyle"] = round % 2 ? "smoker" : "nonsmoker";
    auto exec = Execute(spec.value(), fns, inputs);
    ASSERT_TRUE(exec.ok());
    std::vector<std::string> labels;
    for (int s = 1; s <= 15; ++s) {
      labels.push_back(exec.value().NodeLabel(
          exec.value().FindByProcess(s).value()));
    }
    if (round == 0) {
      first_labels = labels;
    } else {
      EXPECT_EQ(labels, first_labels) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace paw
