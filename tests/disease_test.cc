// The figure-reproduction test: asserts every machine-checkable fact the
// paper states about the disease-susceptibility example (Figs. 1-4).

#include "src/repo/disease.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/graph/algorithms.h"
#include "src/provenance/exec_view.h"
#include "src/workflow/hierarchy.h"
#include "src/workflow/view.h"

namespace paw {
namespace {

class DiseaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    spec_ = std::move(spec).value();
    h_ = ExpansionHierarchy::Build(spec_);
  }

  WorkflowId W(const std::string& code) {
    return spec_.FindWorkflow(code).value();
  }
  ModuleId M(const std::string& code) {
    return spec_.FindModule(code).value();
  }

  Specification spec_;
  ExpansionHierarchy h_;
};

// ---- Figure 1: the specification ----

TEST_F(DiseaseTest, Fig1ModuleInventory) {
  EXPECT_EQ(spec_.num_workflows(), 4);
  EXPECT_EQ(spec_.num_modules(), 17);  // I, O, M1..M15
  EXPECT_EQ(spec_.module(M("M1")).name, "Determine Genetic Susceptibility");
  EXPECT_EQ(spec_.module(M("M2")).name, "Evaluate Disorder Risk");
  EXPECT_EQ(spec_.module(M("M3")).name, "Expand SNP Set");
  EXPECT_EQ(spec_.module(M("M5")).name, "Generate Database Queries");
  EXPECT_EQ(spec_.module(M("M6")).name, "Query OMIM");
  EXPECT_EQ(spec_.module(M("M7")).name, "Query PubMed");
  EXPECT_EQ(spec_.module(M("M8")).name, "Combine Disorder Sets");
}

TEST_F(DiseaseTest, Fig1TauExpansions) {
  // "M1 is defined by the workflow W2, M2 by the workflow W3, and M4 by
  // the workflow W4."
  EXPECT_EQ(spec_.module(M("M1")).expansion, W("W2"));
  EXPECT_EQ(spec_.module(M("M2")).expansion, W("W3"));
  EXPECT_EQ(spec_.module(M("M4")).expansion, W("W4"));
}

TEST_F(DiseaseTest, Fig1EdgeLabels) {
  auto i_out = spec_.OutEdges(M("I"));
  ASSERT_EQ(i_out.size(), 2u);
  EXPECT_EQ(i_out[0]->labels,
            (std::vector<std::string>{"SNPs", "ethnicity"}));
  EXPECT_EQ(i_out[1]->labels,
            (std::vector<std::string>{"lifestyle", "family history",
                                      "physical symptoms"}));
  auto m2_out = spec_.OutEdges(M("M2"));
  ASSERT_EQ(m2_out.size(), 1u);
  EXPECT_EQ(m2_out[0]->labels, (std::vector<std::string>{"prognosis"}));
}

TEST_F(DiseaseTest, Sec3StructuralFactsOfW3) {
  // The four facts pinning W3's topology (see DESIGN.md):
  Specification::LocalGraph local = spec_.BuildLocalGraph(W("W3"));
  auto idx = [&](const std::string& code) {
    return local.module_to_local.at(M(code));
  };
  // 1. Direct edge M13 -> M11 exists.
  EXPECT_TRUE(local.graph.HasEdge(idx("M13"), idx("M11")));
  // 2. Deleting it removes the only M12 ~> M11 path.
  Digraph pruned = local.graph;
  ASSERT_TRUE(pruned.RemoveEdge(idx("M13"), idx("M11")).ok());
  EXPECT_TRUE(PathExists(local.graph, idx("M12"), idx("M11")));
  EXPECT_FALSE(PathExists(pruned, idx("M12"), idx("M11")));
  // 3/4. No real M10 ~> M14 path, but edges M10 -> M11 and M13 -> M14
  // exist so clustering {M11, M13} would fabricate one.
  EXPECT_FALSE(PathExists(local.graph, idx("M10"), idx("M14")));
  EXPECT_TRUE(local.graph.HasEdge(idx("M10"), idx("M11")));
  EXPECT_TRUE(local.graph.HasEdge(idx("M13"), idx("M14")));
}

// ---- Figure 3: the expansion hierarchy (shape asserted in
// hierarchy_test; here only the root) ----

TEST_F(DiseaseTest, Fig3Root) { EXPECT_EQ(h_.root(), W("W1")); }

// ---- Figure 4: the execution ----

class DiseaseExecutionTest : public DiseaseTest {
 protected:
  void SetUp() override {
    DiseaseTest::SetUp();
    auto exec = RunDiseaseExecution(spec_);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    exec_ = std::make_unique<Execution>(std::move(exec).value());
  }

  /// The activation node with process id s (begin node for composites).
  ExecNodeId S(int s) { return exec_->FindByProcess(s).value(); }

  std::unique_ptr<Execution> exec_;
};

TEST_F(DiseaseExecutionTest, Fig4ProcessIdsExactly) {
  // The paper's process ids: S1=M1, S2=M3, S3=M4, S4=M5, S5=M6, S6=M7,
  // S7=M8, S8=M2, S9=M9, S10=M12, S11=M13, S12=M14, S13=M10, S14=M11,
  // S15=M15.
  const std::vector<std::pair<int, std::string>> expected{
      {1, "M1"},  {2, "M3"},  {3, "M4"},  {4, "M5"},  {5, "M6"},
      {6, "M7"},  {7, "M8"},  {8, "M2"},  {9, "M9"},  {10, "M12"},
      {11, "M13"}, {12, "M14"}, {13, "M10"}, {14, "M11"}, {15, "M15"}};
  for (const auto& [s, code] : expected) {
    ExecNodeId n = S(s);
    EXPECT_EQ(spec_.module(exec_->node(n).module).code, code)
        << "process S" << s;
  }
  // No S16.
  EXPECT_FALSE(exec_->FindByProcess(16).ok());
}

TEST_F(DiseaseExecutionTest, Fig4NodeAndItemCounts) {
  // I, O, 12 atomic activations, 3 composite begin/end pairs = 20 nodes.
  EXPECT_EQ(exec_->num_nodes(), 20);
  // Data items d0..d19.
  EXPECT_EQ(exec_->num_items(), 20);
}

TEST_F(DiseaseExecutionTest, Fig4BeginEndPairsForComposites) {
  int begins = 0;
  int ends = 0;
  for (const ExecNode& n : exec_->nodes()) {
    if (n.kind == ExecNodeKind::kBegin) ++begins;
    if (n.kind == ExecNodeKind::kEnd) ++ends;
  }
  EXPECT_EQ(begins, 3);  // M1, M4, M2
  EXPECT_EQ(ends, 3);
  EXPECT_EQ(exec_->NodeLabel(S(1)), "S1:M1 begin");
  EXPECT_EQ(exec_->NodeLabel(S(4)), "S4:M5");
}

TEST_F(DiseaseExecutionTest, Fig4CanonicalItemIds) {
  // d0,d1 = SNPs, ethnicity produced by I.
  EXPECT_EQ(exec_->item(DataItemId(0)).label, "SNPs");
  EXPECT_EQ(exec_->item(DataItemId(1)).label, "ethnicity");
  // d2,d3,d4 = lifestyle, family history, physical symptoms.
  EXPECT_EQ(exec_->item(DataItemId(2)).label, "lifestyle");
  EXPECT_EQ(exec_->item(DataItemId(3)).label, "family history");
  EXPECT_EQ(exec_->item(DataItemId(4)).label, "physical symptoms");
  // d5 = the expanded SNP set produced by M3 (S2).
  EXPECT_EQ(exec_->item(DataItemId(5)).label, "SNPs");
  EXPECT_EQ(exec_->item(DataItemId(5)).producer, S(2));
  // d10 = combined disorders produced by M8 (S7).
  EXPECT_EQ(exec_->item(DataItemId(10)).label, "disorders");
  EXPECT_EQ(exec_->item(DataItemId(10)).producer, S(7));
  // d19 = the prognosis produced by M15 (S15).
  EXPECT_EQ(exec_->item(DataItemId(19)).label, "prognosis");
  EXPECT_EQ(exec_->item(DataItemId(19)).producer, S(15));
}

TEST_F(DiseaseExecutionTest, Fig4DataForwardingThroughBeginEnd) {
  // d10 flows M8 -> M4.end -> M1.end -> M2.begin (three hops in Fig. 4).
  ExecNodeId m8 = S(7);
  // Locate the end nodes by process id + kind.
  ExecNodeId m4_end, m1_end, m2_begin;
  for (const ExecNode& n : exec_->nodes()) {
    if (n.kind == ExecNodeKind::kEnd && n.process_id == 3) m4_end = n.id;
    if (n.kind == ExecNodeKind::kEnd && n.process_id == 1) m1_end = n.id;
    if (n.kind == ExecNodeKind::kBegin && n.process_id == 8) {
      m2_begin = n.id;
    }
  }
  ASSERT_TRUE(m4_end.valid());
  ASSERT_TRUE(m1_end.valid());
  ASSERT_TRUE(m2_begin.valid());
  DataItemId d10(10);
  auto on = [&](ExecNodeId a, ExecNodeId b) {
    const auto& items = exec_->ItemsOn(a, b);
    return std::find(items.begin(), items.end(), d10) != items.end();
  };
  EXPECT_TRUE(on(m8, m4_end));
  EXPECT_TRUE(on(m4_end, m1_end));
  EXPECT_TRUE(on(m1_end, m2_begin));
}

TEST_F(DiseaseExecutionTest, Fig4InputFeedIntoM9) {
  // Fig. 4 annotates the edge into M9 with {d2, d3, d4, d10}.
  ExecNodeId m9 = S(9);
  ExecNodeId m2_begin;
  for (const ExecNode& n : exec_->nodes()) {
    if (n.kind == ExecNodeKind::kBegin && n.process_id == 8) {
      m2_begin = n.id;
    }
  }
  ASSERT_TRUE(m2_begin.valid());
  const auto& items = exec_->ItemsOn(m2_begin, m9);
  std::vector<int32_t> ids;
  for (DataItemId d : items) ids.push_back(d.value());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int32_t>{2, 3, 4, 10}));
}

TEST_F(DiseaseExecutionTest, Fig4OutputReceivesD19) {
  ExecNodeId out;
  for (const ExecNode& n : exec_->nodes()) {
    if (n.kind == ExecNodeKind::kOutput) out = n.id;
  }
  ASSERT_TRUE(out.valid());
  ASSERT_EQ(exec_->graph().InDegree(out.value()), 1u);
  NodeIndex from = exec_->graph().InNeighbors(out.value())[0];
  const auto& items = exec_->ItemsOn(ExecNodeId(from), out);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].value(), 19);
}

TEST_F(DiseaseExecutionTest, SimulatedValuesAreMeaningful) {
  // The toy functions thread values end-to-end: the prognosis mentions
  // both literature summaries and private notes.
  const DataItem& prognosis = exec_->item(DataItemId(19));
  EXPECT_NE(prognosis.value.find("risk{"), std::string::npos);
  EXPECT_NE(prognosis.value.find("summary{"), std::string::npos);
  EXPECT_NE(prognosis.value.find("updated{"), std::string::npos);
  // d5 expands the raw SNPs.
  EXPECT_EQ(exec_->item(DataItemId(5)).value,
            "expanded(rs429358,rs7412)");
}

// ---- Figure 2: the provenance view under prefix {W1} ----

TEST_F(DiseaseExecutionTest, Fig2ViewUnderRootPrefix) {
  auto view = CollapseExecution(*exec_, h_, {W("W1")});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  // Fig. 2: I, S1:M1, S8:M2, O.
  ASSERT_EQ(view.value().num_nodes(), 4);
  std::vector<std::string> labels;
  for (NodeIndex i = 0; i < view.value().num_nodes(); ++i) {
    labels.push_back(view.value().NodeLabel(i));
  }
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels,
            (std::vector<std::string>{"I", "O", "S1:M1", "S8:M2"}));
  EXPECT_EQ(view.value().num_edges(), 4);
}

TEST_F(DiseaseExecutionTest, Fig2EdgeItems) {
  auto view = CollapseExecution(*exec_, h_, {W("W1")});
  ASSERT_TRUE(view.ok());
  const ExecView& v = view.value();
  auto find_node = [&](const std::string& label) {
    for (NodeIndex i = 0; i < v.num_nodes(); ++i) {
      if (v.NodeLabel(i) == label) return i;
    }
    return NodeIndex(-1);
  };
  NodeIndex i_node = find_node("I");
  NodeIndex m1 = find_node("S1:M1");
  NodeIndex m2 = find_node("S8:M2");
  NodeIndex o = find_node("O");
  ASSERT_GE(i_node, 0);
  ASSERT_GE(m1, 0);
  ASSERT_GE(m2, 0);
  ASSERT_GE(o, 0);
  auto ids = [&](NodeIndex a, NodeIndex b) {
    std::vector<int32_t> out;
    for (DataItemId d : v.ItemsOn(a, b)) out.push_back(d.value());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(ids(i_node, m1), (std::vector<int32_t>{0, 1}));      // d0,d1
  EXPECT_EQ(ids(i_node, m2), (std::vector<int32_t>{2, 3, 4}));   // d2-d4
  EXPECT_EQ(ids(m1, m2), (std::vector<int32_t>{10}));            // d10
  EXPECT_EQ(ids(m2, o), (std::vector<int32_t>{19}));             // d19
  EXPECT_TRUE(v.node(m1).collapsed);
  EXPECT_FALSE(v.node(i_node).collapsed);
}

TEST_F(DiseaseExecutionTest, PolicyValidates) {
  PolicySet policy = DiseasePolicy();
  EXPECT_TRUE(ValidatePolicy(spec_, policy).ok());
}

}  // namespace
}  // namespace paw
