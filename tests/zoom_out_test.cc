// Tests for zoom-out evaluation (level and structural coarsening).

#include "src/query/zoom_out.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/privacy/access_control.h"
#include "src/query/engine.h"
#include "src/repo/disease.h"
#include "src/repo/repository.h"
#include "tests/exec_view_reference.h"

namespace paw {
namespace {

class ZoomOutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    spec_ = std::make_unique<Specification>(std::move(spec).value());
    h_ = ExpansionHierarchy::Build(*spec_);
    auto exec = RunDiseaseExecution(*spec_);
    ASSERT_TRUE(exec.ok());
    exec_ = std::make_unique<Execution>(std::move(exec).value());
    policy_ = DiseasePolicy();
  }

  WorkflowId W(const std::string& code) {
    return spec_->FindWorkflow(code).value();
  }
  ModuleId M(const std::string& code) {
    return spec_->FindModule(code).value();
  }

  std::unique_ptr<Specification> spec_;
  ExpansionHierarchy h_;
  std::unique_ptr<Execution> exec_;
  PolicySet policy_;
};

TEST_F(ZoomOutTest, LevelZoomOutRemovesForbiddenWorkflows) {
  // A full-expansion answer handed to a level-1 observer must zoom out W4.
  auto result = ZoomOutToLevel(*spec_, h_, h_.FullPrefix(), /*level=*/1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().final_prefix,
            (Prefix{W("W1"), W("W2"), W("W3")}));
  EXPECT_EQ(result.value().steps, 1);
  // M4 shows as a collapsed box in the final view.
  EXPECT_TRUE(result.value().view.IndexOf(M("M4")).ok());
  EXPECT_FALSE(result.value().view.IndexOf(M("M5")).ok());
}

TEST_F(ZoomOutTest, LevelZeroCollapsesToRoot) {
  auto result = ZoomOutToLevel(*spec_, h_, h_.FullPrefix(), /*level=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().final_prefix, h_.RootPrefix());
  EXPECT_EQ(result.value().steps, 3);  // W4, then W2, then W3 (or W3 first)
}

TEST_F(ZoomOutTest, CompliantPrefixUntouched) {
  auto result = ZoomOutToLevel(*spec_, h_, {W("W1")}, /*level=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().steps, 0);
  EXPECT_EQ(result.value().final_prefix, h_.RootPrefix());
}

TEST_F(ZoomOutTest, StructuralFactVisibleAtFullView) {
  auto view = CollapseExecution(*exec_, h_, h_.FullPrefix());
  ASSERT_TRUE(view.ok());
  auto visible = StructuralFactVisible(view.value(), M("M13"), M("M11"));
  ASSERT_TRUE(visible.ok());
  EXPECT_TRUE(visible.value());
}

TEST_F(ZoomOutTest, StructuralFactHiddenAtRootView) {
  auto view = CollapseExecution(*exec_, h_, h_.RootPrefix());
  ASSERT_TRUE(view.ok());
  // M13 and M11 both collapse inside S8:M2 -> the fact is invisible.
  auto visible = StructuralFactVisible(view.value(), M("M13"), M("M11"));
  ASSERT_TRUE(visible.ok());
  EXPECT_FALSE(visible.value());
}

TEST_F(ZoomOutTest, ZoomOutExecutionEnforcesPolicyAtLevel1) {
  // Level-1 observers may expand W3, which would reveal M13 ~> M11; the
  // structural requirement (required_level 2) forces a zoom-out of W3.
  auto result = ZoomOutExecution(*exec_, h_, policy_, /*level=*/1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().steps, 0);
  EXPECT_FALSE(result.value().final_prefix.count(W("W3")));
  auto visible =
      StructuralFactVisible(result.value().view, M("M13"), M("M11"));
  ASSERT_TRUE(visible.ok());
  EXPECT_FALSE(visible.value());
}

TEST_F(ZoomOutTest, ClearedObserverSeesEverything) {
  auto result = ZoomOutExecution(*exec_, h_, policy_, /*level=*/2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().steps, 0);
  EXPECT_EQ(result.value().final_prefix, h_.FullPrefix());
}

TEST_F(ZoomOutTest, Level0AlreadyCompliant) {
  auto result = ZoomOutExecution(*exec_, h_, policy_, /*level=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().steps, 0);
  EXPECT_EQ(result.value().final_prefix, h_.RootPrefix());
}

TEST_F(ZoomOutTest, RootLevelStructuralLeakIsDenied) {
  // A sensitive pair at the root level (M1 ~> M2) cannot be hidden by
  // zooming: the engine reports PermissionDenied so callers fall back to
  // edge deletion.
  PolicySet p;
  p.structural_reqs.push_back({"M1", "M2", /*required_level=*/5});
  auto result = ZoomOutExecution(*exec_, h_, p, /*level=*/0);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsPermissionDenied());
}

TEST_F(ZoomOutTest, InvalidPrefixRejected) {
  EXPECT_FALSE(ZoomOutToLevel(*spec_, h_, {W("W2")}, 1).ok());
}

// ---- Differential: the one-sweep check and the zoom-out loop against
// the pairwise check over the chain-walk collapse ----

/// Checks the structural fact for every ordered pair of `exec`'s modules
/// (a module with itself included) at every prefix.
void ExpectStructuralChecksMatch(const Execution& exec,
                                 const ExpansionHierarchy& h) {
  auto prefixes = h.EnumeratePrefixes();
  ASSERT_TRUE(prefixes.ok());
  const int modules = exec.spec().num_modules();
  for (const Prefix& p : prefixes.value()) {
    auto view = CollapseExecution(exec, h, p);
    ASSERT_TRUE(view.ok());
    const ref::ExecViewRef want = ref::Collapse(exec, p);
    for (int32_t a = 0; a < modules; ++a) {
      for (int32_t b = 0; b < modules; ++b) {
        auto got = StructuralFactVisible(view.value(), ModuleId(a),
                                         ModuleId(b));
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(),
                  ref::StructuralFactVisible(want, ModuleId(a), ModuleId(b)))
            << exec.spec().module(ModuleId(a)).code << " ~> "
            << exec.spec().module(ModuleId(b)).code;
      }
    }
  }
}

/// Checks ZoomOutExecution against the reference loop at levels 0-3.
void ExpectZoomOutsMatch(const Execution& exec, const ExpansionHierarchy& h,
                         const PolicySet& policy) {
  for (AccessLevel level = 0; level <= 3; ++level) {
    auto got = ZoomOutExecution(exec, h, policy, level);
    auto want = ref::ZoomOutExecution(exec, h, policy, level);
    ASSERT_EQ(got.ok(), want.ok()) << "level " << level;
    if (!got.ok()) continue;
    EXPECT_EQ(got.value().final_prefix, want.value().final_prefix);
    EXPECT_EQ(got.value().steps, want.value().steps);
    ref::ExpectSameView(got.value().view, want.value().view);
  }
}

TEST_F(ZoomOutTest, StructuralCheckMatchesPairwiseOnDisease) {
  ExpectStructuralChecksMatch(*exec_, h_);
  ExpectZoomOutsMatch(*exec_, h_, policy_);
}

TEST_F(ZoomOutTest, StructuralCheckMatchesPairwiseOnHandMadeExecutions) {
  for (auto made : {ref::CyclicExecution(*exec_),
                    ref::NonBeginEnclosingExecution(*exec_),
                    ref::SharedProcessIdExecution(*exec_, 3),
                    ref::DuplicateActivationExecution(*exec_),
                    ref::BypassFlowExecution(*exec_)}) {
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    ExpectStructuralChecksMatch(made.value(), h_);
    ExpectZoomOutsMatch(made.value(), h_, policy_);
  }
}

TEST_F(ZoomOutTest, SameModuleRequirementKeepsThePairwiseCheck) {
  // On a cycle, an activation reaches itself; that alone does not reveal
  // that the module reaches *another* activation of itself.
  auto cyclic = ref::CyclicExecution(*exec_);
  ASSERT_TRUE(cyclic.ok());
  auto full = CollapseExecution(cyclic.value(), h_, h_.FullPrefix());
  ASSERT_TRUE(full.ok());
  int on_cycle = 0;
  for (const ExecNode& n : cyclic.value().nodes()) {
    if (n.kind != ExecNodeKind::kAtomic) continue;
    bool reaches_itself = false;
    for (NodeIndex v : cyclic.value().graph().OutNeighbors(n.id.value())) {
      reaches_itself |= PathExists(cyclic.value().graph(), v, n.id.value());
    }
    if (!reaches_itself) continue;
    ++on_cycle;
    auto visible = StructuralFactVisible(full.value(), n.module, n.module);
    ASSERT_TRUE(visible.ok());
    EXPECT_FALSE(visible.value()) << exec_->spec().module(n.module).code;
  }
  EXPECT_GT(on_cycle, 0);

  // A second activation downstream of the first does reveal it.
  auto twice = ref::DuplicateActivationExecution(*exec_);
  ASSERT_TRUE(twice.ok());
  const ExecNode& copy = twice.value().node(ExecNodeId(exec_->num_nodes()));
  auto view = CollapseExecution(twice.value(), h_, h_.FullPrefix());
  ASSERT_TRUE(view.ok());
  auto visible = StructuralFactVisible(view.value(), copy.module, copy.module);
  ASSERT_TRUE(visible.ok());
  EXPECT_TRUE(visible.value());

  // Zoom-out under a same-module requirement agrees with the reference.
  PolicySet same;
  const std::string code = spec_->module(copy.module).code;
  same.structural_reqs.push_back({code, code, /*required_level=*/2});
  ExpectZoomOutsMatch(twice.value(), h_, same);
  ExpectZoomOutsMatch(cyclic.value(), h_, same);
}

TEST(ZoomOutGeneratedTest, MatchesReferenceOnTenantShapedRuns) {
  Rng rng(1702);
  for (int s = 0; s < 2; ++s) {
    Specification spec =
        ref::TenantShapedSpec(&rng, "tenant " + std::to_string(s));
    ExpansionHierarchy h = ExpansionHierarchy::Build(spec);
    PolicySet policy = ref::TenantShapedPolicy(spec, s);
    ASSERT_FALSE(policy.structural_reqs.empty());
    auto exec = GenerateExecution(spec, &rng);
    ASSERT_TRUE(exec.ok());
    ExpectZoomOutsMatch(exec.value(), h, policy);
    // Random module pairs at each access level.
    for (AccessLevel level = 0; level <= 3; ++level) {
      Prefix p = h.AccessPrefix(spec, level);
      auto view = CollapseExecution(exec.value(), h, p);
      ASSERT_TRUE(view.ok());
      const ref::ExecViewRef want = ref::Collapse(exec.value(), p);
      for (int pair = 0; pair < 64; ++pair) {
        ModuleId a(static_cast<int32_t>(rng.Uniform(spec.modules().size())));
        ModuleId b(static_cast<int32_t>(rng.Uniform(spec.modules().size())));
        auto got = StructuralFactVisible(view.value(), a, b);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), ref::StructuralFactVisible(want, a, b));
      }
    }
  }
}

// ---- Differential: LINEAGE rows against the ostringstream render ----

/// Asks LINEAGE for every item of `exec_id` at levels 0-3 and compares
/// prefix, zoom steps and every row with the reference.
void ExpectLineageMatches(const Repository& repo, ExecutionId exec_id) {
  AccessControl acl;
  std::vector<PrincipalId> principals;
  for (AccessLevel level = 0; level <= 3; ++level) {
    principals.push_back(
        acl.AddPrincipal("p" + std::to_string(level), level).value());
  }
  PrivacyViewCache cache;
  EngineOptions opts;
  opts.view_cache_instance = &cache;
  QueryEngine engine(repo, acl, opts);
  const ExecutionEntry& entry = repo.execution(exec_id);
  const SpecEntry& spec_entry = repo.entry(entry.spec_id);
  int rows = 0;
  for (AccessLevel level = 0; level <= 3; ++level) {
    auto zoomed = ref::ZoomOutExecution(entry.exec, spec_entry.hierarchy,
                                        spec_entry.policy, level);
    ASSERT_TRUE(zoomed.ok());
    for (int32_t d = 0; d < entry.exec.num_items(); ++d) {
      auto got = engine.Lineage(principals[static_cast<size_t>(level)],
                                exec_id, DataItemId(d));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value().prefix, zoomed.value().final_prefix);
      EXPECT_EQ(got.value().zoom_steps, zoomed.value().steps);
      EXPECT_EQ(got.value().rows,
                ref::LineageRows(zoomed.value(), spec_entry.policy.data,
                                 level, DataItemId(d)))
          << "level " << level << " item " << d;
      rows += static_cast<int>(got.value().rows.size());
    }
  }
  EXPECT_GT(rows, 0);
}

TEST(LineageRenderTest, RowsMatchReferenceOnTenantShapedRuns) {
  Rng rng(1703);
  Repository repo;
  Specification spec = ref::TenantShapedSpec(&rng, "tenant");
  PolicySet policy = ref::TenantShapedPolicy(spec, 0);
  const int sid = repo.AddSpecification(std::move(spec), policy).value();
  for (int run = 0; run < 2; ++run) {
    auto exec = GenerateExecution(repo.entry(sid).spec, &rng);
    ASSERT_TRUE(exec.ok());
    const ExecutionId id =
        repo.AddExecution(sid, std::move(exec).value()).value();
    ExpectLineageMatches(repo, id);
  }
}

TEST(LineageRenderTest, RowsMatchReferenceOnHandMadeExecutions) {
  Repository repo;
  const int sid =
      repo.AddSpecification(BuildDiseaseSpec().value(), DiseasePolicy())
          .value();
  auto disease = RunDiseaseExecution(repo.entry(sid).spec);
  ASSERT_TRUE(disease.ok());
  for (auto made : {ref::CyclicExecution(disease.value()),
                    ref::NonBeginEnclosingExecution(disease.value()),
                    ref::DuplicateActivationExecution(disease.value()),
                    ref::BypassFlowExecution(disease.value())}) {
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const ExecutionId id =
        repo.AddExecution(sid, std::move(made).value()).value();
    ExpectLineageMatches(repo, id);
  }
}

}  // namespace
}  // namespace paw
