// Tests for provenance-graph serialization.

#include "src/provenance/serialize.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/privacy/data_privacy.h"
#include "src/repo/disease.h"
#include "src/repo/workload.h"
#include "src/workflow/builder.h"
#include "tests/exec_view_reference.h"

namespace paw {
namespace {

/// The reference masked render: a copy of `exec` with every hidden
/// value replaced by the placeholder (nodes, items and flows rebuilt in
/// their stored order), serialized without a mask.
std::string MaskedCopyRender(const Execution& exec,
                             const MaskingReport& report) {
  Execution masked(exec.spec());
  for (const ExecNode& node : exec.nodes()) {
    masked.AddNode(node.kind, node.module, node.process_id, node.enclosing);
  }
  for (const DataItem& item : exec.items()) {
    const bool visible = report.visible[static_cast<size_t>(item.id.value())];
    masked.AddItem(item.label, item.producer,
                   visible ? item.value : std::string(kMaskedValue));
  }
  const Digraph& g = exec.graph();
  for (NodeIndex u = 0; u < g.num_nodes(); ++u) {
    for (NodeIndex v : g.OutNeighbors(u)) {
      EXPECT_TRUE(masked
                      .AddFlow(ExecNodeId(u), ExecNodeId(v),
                               exec.ItemsOn(ExecNodeId(u), ExecNodeId(v)))
                      .ok());
    }
  }
  return SerializeExecution(masked);
}

/// Checks the in-place masked render against the reference at levels
/// 0-3; returns how many of those levels masked at least one value.
int ExpectMaskedRenderMatchesCopy(const Execution& exec,
                                  const DataPolicy& policy) {
  int masking_levels = 0;
  for (AccessLevel level = 0; level <= 3; ++level) {
    const MaskingReport mask = ComputeMasking(exec, policy, level);
    EXPECT_EQ(SerializeExecution(exec, mask.visible, kMaskedValue),
              MaskedCopyRender(exec, mask))
        << "level " << level;
    if (mask.num_masked > 0) ++masking_levels;
  }
  return masking_levels;
}

class ExecSerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    spec_ = std::make_unique<Specification>(std::move(spec).value());
    auto exec = RunDiseaseExecution(*spec_);
    ASSERT_TRUE(exec.ok());
    exec_ = std::make_unique<Execution>(std::move(exec).value());
  }

  std::unique_ptr<Specification> spec_;
  std::unique_ptr<Execution> exec_;
};

TEST_F(ExecSerializeTest, RoundTripIsExact) {
  std::string text = SerializeExecution(*exec_);
  auto parsed = ParseExecution(text, *spec_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeExecution(parsed.value()), text);
  EXPECT_EQ(parsed.value().num_nodes(), exec_->num_nodes());
  EXPECT_EQ(parsed.value().num_items(), exec_->num_items());
  EXPECT_EQ(parsed.value().graph().num_edges(),
            exec_->graph().num_edges());
}

TEST_F(ExecSerializeTest, RoundTripPreservesSemantics) {
  auto parsed = ParseExecution(SerializeExecution(*exec_), *spec_);
  ASSERT_TRUE(parsed.ok());
  const Execution& p = parsed.value();
  // Process ids and labels intact.
  for (int s = 1; s <= 15; ++s) {
    EXPECT_EQ(p.NodeLabel(p.FindByProcess(s).value()),
              exec_->NodeLabel(exec_->FindByProcess(s).value()));
  }
  // Items intact, including values with special characters.
  for (int i = 0; i < p.num_items(); ++i) {
    EXPECT_EQ(p.item(DataItemId(i)).label,
              exec_->item(DataItemId(i)).label);
    EXPECT_EQ(p.item(DataItemId(i)).value,
              exec_->item(DataItemId(i)).value);
  }
  // Enclosing chains intact (needed for exec views).
  for (int i = 0; i < p.num_nodes(); ++i) {
    EXPECT_EQ(p.node(ExecNodeId(i)).enclosing,
              exec_->node(ExecNodeId(i)).enclosing);
  }
}

TEST_F(ExecSerializeTest, MaskedRenderMatchesMaskedCopy) {
  EXPECT_GT(ExpectMaskedRenderMatchesCopy(*exec_, DiseasePolicy().data), 0);
}

TEST_F(ExecSerializeTest, RejectsWrongSpec) {
  std::string text = SerializeExecution(*exec_);
  SpecBuilder b("other");
  WorkflowId w = b.AddWorkflow("W1", "top");
  ModuleId i = b.AddInput(w);
  ModuleId o = b.AddOutput(w);
  ASSERT_TRUE(b.Connect(i, o, {"x"}).ok());
  auto other = std::move(b).Build();
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(ParseExecution(text, other.value()).ok());
}

TEST_F(ExecSerializeTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseExecution("gibberish\n", *spec_).ok());
  EXPECT_FALSE(ParseExecution("node 0 atomic M1 process=1 enclosing=-1\n",
                              *spec_)
                   .ok());  // node before header
  std::string bad_module =
      "execution spec=\"disease susceptibility\"\n"
      "node 0 atomic M404 process=1 enclosing=-1\n";
  EXPECT_FALSE(ParseExecution(bad_module, *spec_).ok());
  std::string bad_ids =
      "execution spec=\"disease susceptibility\"\n"
      "node 5 atomic M3 process=1 enclosing=-1\n";
  EXPECT_FALSE(ParseExecution(bad_ids, *spec_).ok());
}

TEST(ExecSerializeGeneratedTest, GeneratedExecutionsRoundTrip) {
  Rng rng(2027);
  WorkloadParams params;
  params.depth = 2;
  for (int trial = 0; trial < 5; ++trial) {
    auto spec = GenerateSpec(params, &rng, "g" + std::to_string(trial));
    ASSERT_TRUE(spec.ok());
    auto exec = GenerateExecution(spec.value(), &rng);
    ASSERT_TRUE(exec.ok());
    std::string text = SerializeExecution(exec.value());
    auto parsed = ParseExecution(text, spec.value());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(SerializeExecution(parsed.value()), text);
  }
}

TEST(ExecSerializeGeneratedTest, MaskedRenderMatchesMaskedCopy) {
  Rng rng(2028);
  WorkloadParams params;
  params.depth = 2;
  int masking_levels = 0;
  for (int trial = 0; trial < 5; ++trial) {
    auto spec = GenerateSpec(params, &rng, "m" + std::to_string(trial));
    ASSERT_TRUE(spec.ok());
    auto exec = GenerateExecution(spec.value(), &rng);
    ASSERT_TRUE(exec.ok());
    // Policies: everything public, everything at level 2, and a random
    // level per label.
    DataPolicy open;
    DataPolicy closed;
    closed.default_level = 2;
    DataPolicy mixed;
    mixed.default_level = 1;
    for (const DataItem& item : exec.value().items()) {
      mixed.label_level[item.label] = static_cast<AccessLevel>(rng.Uniform(4));
    }
    for (const DataPolicy* policy : {&open, &closed, &mixed}) {
      masking_levels += ExpectMaskedRenderMatchesCopy(exec.value(), *policy);
    }
  }
  EXPECT_GT(masking_levels, 0);
}

// ---- Differential: the append-only render against the ostringstream
// render ----

/// Compares the render with the reference unmasked and masked at levels
/// 0-3; returns how many levels masked at least one value.
int ExpectRenderMatchesReference(const Execution& exec,
                                 const DataPolicy& policy) {
  EXPECT_EQ(SerializeExecution(exec), ref::SerializeExecution(exec, {}, ""));
  int masking_levels = 0;
  for (AccessLevel level = 0; level <= 3; ++level) {
    const MaskingReport mask = ComputeMasking(exec, policy, level);
    EXPECT_EQ(SerializeExecution(exec, mask.visible, kMaskedValue),
              ref::SerializeExecution(exec, mask.visible, kMaskedValue))
        << "level " << level;
    if (mask.num_masked > 0) ++masking_levels;
  }
  return masking_levels;
}

TEST_F(ExecSerializeTest, RenderMatchesReferenceOnHandMadeExecutions) {
  EXPECT_GT(ExpectRenderMatchesReference(*exec_, DiseasePolicy().data), 0);
  for (auto made : {ref::CyclicExecution(*exec_),
                    ref::NonBeginEnclosingExecution(*exec_),
                    ref::SparseProcessIdExecution(*exec_),
                    ref::DuplicateActivationExecution(*exec_),
                    ref::BypassFlowExecution(*exec_)}) {
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    EXPECT_GT(ExpectRenderMatchesReference(made.value(), DiseasePolicy().data),
              0);
  }
}

TEST_F(ExecSerializeTest, RenderEscapesQuotesAndBackslashes) {
  Execution e(*spec_);
  const ModuleId m = spec_->FindModule("M3").value();
  ExecNodeId a = e.AddNode(ExecNodeKind::kAtomic, m, 1, ExecNodeId());
  ExecNodeId b = e.AddNode(ExecNodeKind::kAtomic, m, 2, ExecNodeId());
  e.AddItem("say \"hi\"", a, "C:\\dir\\\"quoted\" \\");
  e.AddItem("", a, "");
  e.AddItem("\\", a, "\"");
  ASSERT_TRUE(e.AddFlow(a, b, {DataItemId(0), DataItemId(2)}).ok());
  DataPolicy policy;
  policy.label_level["\\"] = 2;
  EXPECT_GT(ExpectRenderMatchesReference(e, policy), 0);
  auto parsed = ParseExecution(SerializeExecution(e), *spec_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (int i = 0; i < e.num_items(); ++i) {
    EXPECT_EQ(parsed.value().item(DataItemId(i)).label,
              e.item(DataItemId(i)).label);
    EXPECT_EQ(parsed.value().item(DataItemId(i)).value,
              e.item(DataItemId(i)).value);
  }
}

TEST(ExecSerializeGeneratedTest, RenderMatchesReferenceOnTenantShapedRuns) {
  Rng rng(1704);
  int masking_levels = 0;
  for (int s = 0; s < 2; ++s) {
    Specification spec =
        ref::TenantShapedSpec(&rng, "tenant " + std::to_string(s));
    const PolicySet policy = ref::TenantShapedPolicy(spec, s);
    auto exec = GenerateExecution(spec, &rng);
    ASSERT_TRUE(exec.ok());
    masking_levels += ExpectRenderMatchesReference(exec.value(), policy.data);
  }
  EXPECT_GT(masking_levels, 0);
}

}  // namespace
}  // namespace paw
