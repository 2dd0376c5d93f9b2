// Tests for execution views beyond the Fig. 2 case covered in
// disease_test: intermediate prefixes, full prefix, item unions.

#include "src/provenance/exec_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/graph/algorithms.h"
#include "src/repo/disease.h"
#include "tests/exec_view_reference.h"

namespace paw {
namespace {

class ExecViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    spec_ = std::make_unique<Specification>(std::move(spec).value());
    h_ = ExpansionHierarchy::Build(*spec_);
    auto exec = RunDiseaseExecution(*spec_);
    ASSERT_TRUE(exec.ok());
    exec_ = std::make_unique<Execution>(std::move(exec).value());
  }

  WorkflowId W(const std::string& code) {
    return spec_->FindWorkflow(code).value();
  }

  std::vector<std::string> Labels(const ExecView& v) {
    std::vector<std::string> out;
    for (NodeIndex i = 0; i < v.num_nodes(); ++i) {
      out.push_back(v.NodeLabel(i));
    }
    return out;
  }

  std::unique_ptr<Specification> spec_;
  ExpansionHierarchy h_;
  std::unique_ptr<Execution> exec_;
};

TEST_F(ExecViewTest, FullPrefixShowsEverything) {
  auto view = CollapseExecution(*exec_, h_, h_.FullPrefix());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().num_nodes(), exec_->num_nodes());
  for (NodeIndex i = 0; i < view.value().num_nodes(); ++i) {
    EXPECT_FALSE(view.value().node(i).collapsed);
  }
}

TEST_F(ExecViewTest, PrefixW1W2CollapsesM4AndM2) {
  auto view = CollapseExecution(*exec_, h_, {W("W1"), W("W2")});
  ASSERT_TRUE(view.ok());
  // Visible: I, O, M1 begin/end, S2:M3, S3:M4 (collapsed), S8:M2
  // (collapsed) = 7 nodes.
  EXPECT_EQ(view.value().num_nodes(), 7);
  auto labels = Labels(view.value());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "S3:M4"),
            labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "S8:M2"),
            labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "S1:M1 begin"),
            labels.end());
  // No W4 internals visible.
  EXPECT_EQ(std::find(labels.begin(), labels.end(), "S4:M5"),
            labels.end());
}

TEST_F(ExecViewTest, CollapsedNodeAbsorbsBoundaryItems) {
  auto view = CollapseExecution(*exec_, h_, {W("W1"), W("W2")});
  ASSERT_TRUE(view.ok());
  const ExecView& v = view.value();
  NodeIndex m3 = -1, m4 = -1;
  for (NodeIndex i = 0; i < v.num_nodes(); ++i) {
    if (v.NodeLabel(i) == "S2:M3") m3 = i;
    if (v.NodeLabel(i) == "S3:M4") m4 = i;
  }
  ASSERT_GE(m3, 0);
  ASSERT_GE(m4, 0);
  // d5 flows M3 -> collapsed M4.
  const auto& items = v.ItemsOn(m3, m4);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].value(), 5);
  EXPECT_TRUE(v.node(m4).collapsed);
  EXPECT_EQ(v.node(m4).process_id, 3);
}

TEST_F(ExecViewTest, ViewNodeOfMapsInternals) {
  auto view = CollapseExecution(*exec_, h_, {W("W1")});
  ASSERT_TRUE(view.ok());
  // M5's activation (S4) maps into the collapsed M1 supernode (S1).
  ExecNodeId m5 = exec_->FindByProcess(4).value();
  auto vn = view.value().ViewNodeOf(m5);
  ASSERT_TRUE(vn.ok());
  EXPECT_EQ(view.value().NodeLabel(vn.value()), "S1:M1");
  EXPECT_TRUE(view.value().node(vn.value()).collapsed);
}

TEST_F(ExecViewTest, NoSelfEdgesAfterCollapse) {
  auto prefixes = h_.EnumeratePrefixes();
  ASSERT_TRUE(prefixes.ok());
  for (const Prefix& p : prefixes.value()) {
    auto view = CollapseExecution(*exec_, h_, p);
    ASSERT_TRUE(view.ok());
    const Digraph g = view.value().ToDigraph();
    for (const auto& [u, v] : g.Edges()) {
      EXPECT_NE(u, v);
    }
    EXPECT_TRUE(IsAcyclic(g));
  }
}

TEST_F(ExecViewTest, InvalidPrefixRejected) {
  EXPECT_FALSE(CollapseExecution(*exec_, h_, {W("W2")}).ok());
}

TEST_F(ExecViewTest, DotRendering) {
  auto view = CollapseExecution(*exec_, h_, {W("W1")});
  ASSERT_TRUE(view.ok());
  std::string dot = view.value().ToDot("fig2");
  EXPECT_NE(dot.find("digraph fig2"), std::string::npos);
  EXPECT_NE(dot.find("S1:M1"), std::string::npos);
  EXPECT_NE(dot.find("d19"), std::string::npos);
}

TEST_F(ExecViewTest, ToDigraphKeepsEdgeOrder) {
  auto view = CollapseExecution(*exec_, h_, {W("W1"), W("W2")});
  ASSERT_TRUE(view.ok());
  const ExecView& v = view.value();
  const Digraph g = v.ToDigraph();
  ASSERT_EQ(g.num_nodes(), v.num_nodes());
  EXPECT_EQ(g.num_edges(), v.num_edges());
  for (NodeIndex u = 0; u < v.num_nodes(); ++u) {
    const auto succ = v.OutNeighbors(u);
    EXPECT_EQ(g.OutNeighbors(u),
              std::vector<NodeIndex>(succ.begin(), succ.end()));
  }
  EXPECT_TRUE(v.ItemsOn(0, 0).empty());
}

// ---- Differential: the flat collapse against the chain walk ----

TEST_F(ExecViewTest, MatchesChainWalkAtEveryDiseasePrefix) {
  auto prefixes = h_.EnumeratePrefixes();
  ASSERT_TRUE(prefixes.ok());
  for (const Prefix& p : prefixes.value()) {
    auto view = CollapseExecution(*exec_, h_, p);
    ASSERT_TRUE(view.ok());
    ref::ExpectSameView(view.value(), ref::Collapse(*exec_, p));
  }
}

TEST_F(ExecViewTest, MatchesChainWalkOnHandMadeExecutions) {
  // Inputs the parser accepts and the executor never makes: a cycle, an
  // `enclosing` naming an atomic node, process ids far above the node
  // count, composites sharing one process id (inside and outside the
  // dense range), modules activated twice, and a flow that bypasses a
  // composite's begin node.
  std::vector<Execution> inputs;
  for (auto made : {ref::CyclicExecution(*exec_),
                    ref::NonBeginEnclosingExecution(*exec_),
                    ref::SparseProcessIdExecution(*exec_),
                    ref::SharedProcessIdExecution(*exec_, 3),
                    ref::SharedProcessIdExecution(*exec_, 100003),
                    ref::DuplicateActivationExecution(*exec_),
                    ref::BypassFlowExecution(*exec_)}) {
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    inputs.push_back(std::move(made).value());
  }
  EXPECT_FALSE(IsAcyclic(inputs[0].graph()));
  auto prefixes = h_.EnumeratePrefixes();
  ASSERT_TRUE(prefixes.ok());
  for (const Execution& exec : inputs) {
    for (const Prefix& p : prefixes.value()) {
      auto view = CollapseExecution(exec, h_, p);
      ASSERT_TRUE(view.ok());
      ref::ExpectSameView(view.value(), ref::Collapse(exec, p));
    }
  }
}

TEST(ExecViewGeneratedTest, MatchesChainWalkOnTenantShapedRuns) {
  // pawbench's tenant shape (depth 3, 150-159 modules) at every access
  // level, and every prefix of a smaller generated spec.
  Rng rng(1701);
  for (int s = 0; s < 2; ++s) {
    Specification spec =
        ref::TenantShapedSpec(&rng, "tenant " + std::to_string(s));
    ExpansionHierarchy h = ExpansionHierarchy::Build(spec);
    auto exec = GenerateExecution(spec, &rng);
    ASSERT_TRUE(exec.ok());
    for (AccessLevel level = 0; level <= 3; ++level) {
      Prefix p = h.AccessPrefix(spec, level);
      auto view = CollapseExecution(exec.value(), h, p);
      ASSERT_TRUE(view.ok());
      ref::ExpectSameView(view.value(), ref::Collapse(exec.value(), p));
    }
  }
  WorkloadParams small;
  small.depth = 2;
  auto spec = GenerateSpec(small, &rng, "small");
  ASSERT_TRUE(spec.ok());
  ExpansionHierarchy h = ExpansionHierarchy::Build(spec.value());
  auto exec = GenerateExecution(spec.value(), &rng);
  ASSERT_TRUE(exec.ok());
  auto prefixes = h.EnumeratePrefixes();
  ASSERT_TRUE(prefixes.ok());
  EXPECT_GT(prefixes.value().size(), 2u);
  for (const Prefix& p : prefixes.value()) {
    auto view = CollapseExecution(exec.value(), h, p);
    ASSERT_TRUE(view.ok());
    ref::ExpectSameView(view.value(), ref::Collapse(exec.value(), p));
  }
}

}  // namespace
}  // namespace paw
