// Tests for the privacy-preserving query engine facade.

#include "src/query/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/privacy/data_privacy.h"
#include "src/privacy/view_cache.h"
#include "src/query/keyword_search.h"
#include "src/repo/disease.h"
#include "src/repo/workload.h"

namespace paw {
namespace {

/// Field-by-field equality of two keyword answer lists, score exact.
void ExpectSameAnswers(const std::vector<KeywordAnswer>& got,
                       const std::vector<KeywordAnswer>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].spec_id, want[i].spec_id);
    EXPECT_EQ(got[i].prefix, want[i].prefix);
    EXPECT_EQ(got[i].matched, want[i].matched);
    EXPECT_EQ(got[i].view_size, want[i].view_size);
    EXPECT_EQ(got[i].score, want[i].score);
  }
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    spec_id_ =
        repo_.AddSpecification(std::move(spec).value(), DiseasePolicy())
            .value();
    auto exec = RunDiseaseExecution(repo_.entry(spec_id_).spec);
    ASSERT_TRUE(exec.ok());
    exec_id_ = repo_.AddExecution(spec_id_, std::move(exec).value()).value();

    public_user_ = acl_.AddPrincipal("public", 0, "anon").value();
    analyst_ = acl_.AddPrincipal("analyst", 1, "lab").value();
    owner_ = acl_.AddPrincipal("owner", 2, "lab").value();

    engine_ = std::make_unique<QueryEngine>(repo_, acl_);
  }

  Repository repo_;
  AccessControl acl_;
  int spec_id_ = -1;
  ExecutionId exec_id_;
  PrincipalId public_user_, analyst_, owner_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(EngineTest, SearchRespectsLevels) {
  auto for_owner = engine_->Search(owner_, {"database queries"});
  ASSERT_TRUE(for_owner.ok());
  EXPECT_EQ(for_owner.value().size(), 1u);

  auto for_public = engine_->Search(public_user_, {"database queries"});
  ASSERT_TRUE(for_public.ok());
  EXPECT_TRUE(for_public.value().empty());
}

TEST_F(EngineTest, SearchCacheSharedAcrossGroupsAtOneLevel) {
  auto for_owner = engine_->Search(owner_, {"disorder"});
  ASSERT_TRUE(for_owner.ok());
  ASSERT_FALSE(for_owner.value().empty());
  EXPECT_EQ(engine_->cache_stats().misses, 1);
  ASSERT_TRUE(engine_->Search(owner_, {"disorder"}).ok());
  EXPECT_EQ(engine_->cache_stats().hits, 1);
  // Same level, another group: the owner's entry serves it unchanged.
  const PrincipalId clinician =
      acl_.AddPrincipal("clinician", 2, "clinic").value();
  auto for_clinician = engine_->Search(clinician, {"disorder"});
  ASSERT_TRUE(for_clinician.ok());
  EXPECT_EQ(engine_->cache_stats().hits, 2);
  EXPECT_EQ(engine_->cache_stats().misses, 1);
  ExpectSameAnswers(for_clinician.value(), for_owner.value());
  // The analyst shares the owner's group but not the level: a miss.
  ASSERT_TRUE(engine_->Search(analyst_, {"disorder"}).ok());
  EXPECT_EQ(engine_->cache_stats().misses, 2);
}

TEST_F(EngineTest, LineageMasksSensitiveValues) {
  // d19 = prognosis; the analyst (level 1) may see structure but not
  // level-2 values like disorders or prognosis.
  auto answer = engine_->Lineage(analyst_, exec_id_, DataItemId(19));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  bool saw_masked = false;
  for (const std::string& row : answer.value().rows) {
    if (row.find(kMaskedValue) != std::string::npos) saw_masked = true;
    // Raw genetic values must never appear.
    EXPECT_EQ(row.find("rs429358"), std::string::npos) << row;
  }
  EXPECT_TRUE(saw_masked);
}

TEST_F(EngineTest, LineageForOwnerShowsValues) {
  auto answer = engine_->Lineage(owner_, exec_id_, DataItemId(19));
  ASSERT_TRUE(answer.ok());
  bool saw_value = false;
  for (const std::string& row : answer.value().rows) {
    if (row.find("risk{") != std::string::npos) saw_value = true;
  }
  EXPECT_TRUE(saw_value);
  EXPECT_EQ(answer.value().zoom_steps, 0);
}

TEST_F(EngineTest, LineageZoomsOutForStructuralPolicy) {
  // Analyst at level 1 would see M13 ~> M11 via W3; the engine must zoom
  // the answer out of W3.
  auto answer = engine_->Lineage(analyst_, exec_id_, DataItemId(19));
  ASSERT_TRUE(answer.ok());
  EXPECT_GT(answer.value().zoom_steps, 0);
  const Specification& spec = repo_.entry(spec_id_).spec;
  WorkflowId w3 = spec.FindWorkflow("W3").value();
  EXPECT_FALSE(answer.value().prefix.count(w3));
  for (const std::string& row : answer.value().rows) {
    EXPECT_EQ(row.find("M13"), std::string::npos) << row;
  }
}

TEST_F(EngineTest, StructuralQueryAtAccessView) {
  StructuralPattern pattern;
  pattern.vars = {{"expand snp"}, {"consult external"}};
  pattern.edges = {{0, 1, true}};
  // The analyst (level 1) sees W2's contents: M3 -> M4.
  auto matches = engine_->Structural(analyst_, spec_id_, pattern);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches.value().size(), 1u);
  // The public user sees only the root view; M3 is invisible.
  auto none = engine_->Structural(public_user_, spec_id_, pattern);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST_F(EngineTest, SearchExecutionsPaperExemplarQuery) {
  // "find executions where Expand SNP Set was executed before Query
  // OMIM and return the provenance information for the latter."
  StructuralPattern pattern;
  pattern.vars = {{"expand snp"}, {"query omim"}};
  pattern.edges = {{0, 1, /*transitive=*/true}};
  auto hits = engine_->SearchExecutions(owner_, pattern,
                                        /*provenance_var=*/1);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_EQ(hits.value().size(), 1u);
  const auto& hit = hits.value()[0];
  EXPECT_EQ(hit.exec_id, exec_id_);
  EXPECT_EQ(hit.num_matches, 1);
  // The provenance of Query OMIM covers the genetic arm but not W3.
  bool mentions_m5 = false;
  for (const std::string& row : hit.provenance.rows) {
    if (row.find("M5") != std::string::npos) mentions_m5 = true;
    EXPECT_EQ(row.find("M9"), std::string::npos) << row;
  }
  EXPECT_TRUE(mentions_m5);
}

TEST_F(EngineTest, SearchExecutionsRespectsAccessViews) {
  StructuralPattern pattern;
  pattern.vars = {{"expand snp"}, {"query omim"}};
  pattern.edges = {{0, 1, true}};
  // M3 and M6 live in W2 (level 1) and W4 (level 2): invisible to the
  // public user and partially invisible to the analyst.
  auto for_public = engine_->SearchExecutions(public_user_, pattern, 1);
  ASSERT_TRUE(for_public.ok());
  EXPECT_TRUE(for_public.value().empty());
  auto for_analyst = engine_->SearchExecutions(analyst_, pattern, 1);
  ASSERT_TRUE(for_analyst.ok());
  EXPECT_TRUE(for_analyst.value().empty());  // Query OMIM needs level 2
  auto for_owner = engine_->SearchExecutions(owner_, pattern, 1);
  ASSERT_TRUE(for_owner.ok());
  EXPECT_EQ(for_owner.value().size(), 1u);
}

TEST_F(EngineTest, SearchExecutionsValidatesVarIndex) {
  StructuralPattern pattern;
  pattern.vars = {{"x"}};
  EXPECT_FALSE(engine_->SearchExecutions(owner_, pattern, 3).ok());
  EXPECT_FALSE(engine_->SearchExecutions(owner_, pattern, -1).ok());
}

TEST_F(EngineTest, ErrorsOnUnknownIds) {
  EXPECT_FALSE(engine_->Search(PrincipalId(42), {"x"}).ok());
  EXPECT_FALSE(
      engine_->Lineage(owner_, ExecutionId(9), DataItemId(0)).ok());
  EXPECT_FALSE(
      engine_->Lineage(owner_, exec_id_, DataItemId(999)).ok());
  StructuralPattern pattern;
  pattern.vars = {{"x"}};
  EXPECT_FALSE(engine_->Structural(owner_, 7, pattern).ok());
}

TEST_F(EngineTest, IndexIsBuilt) {
  EXPECT_GT(engine_->index().num_tokens(), 0);
  EXPECT_EQ(engine_->index().num_docs(), 1);
}

TEST_F(EngineTest, CacheHitServesIdenticalAnswers) {
  auto first = engine_->Search(owner_, {"disorder"});
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.value().empty());
  EXPECT_EQ(engine_->cache_stats().hits, 0);
  auto second = engine_->Search(owner_, {"disorder"});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine_->cache_stats().hits, 1);
  // The hit must be exactly what the cold query computed.
  ExpectSameAnswers(second.value(), first.value());
}

TEST_F(EngineTest, SpecAppendInvalidatesCachedAnswers) {
  ASSERT_TRUE(engine_->Search(owner_, {"disorder"}).ok());
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  // A second copy of the spec (the in-memory repository does not
  // enforce unique names): the same query must now return two answers,
  // so the cached one is unusable.
  ASSERT_TRUE(
      repo_.AddSpecification(std::move(spec).value(), DiseasePolicy())
          .ok());
  auto after = engine_->Search(owner_, {"disorder"});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().size(), 2u);
  EXPECT_EQ(engine_->cache_stats().hits, 0);
}

TEST_F(EngineTest, ExecutionAppendKeepsKeywordCacheHot) {
  ASSERT_TRUE(engine_->Search(owner_, {"disorder"}).ok());
  // Keyword answers depend only on the spec slice of the cut, so
  // execution ingest must not cost cache hits (E12's workload).
  auto exec = RunDiseaseExecution(repo_.entry(spec_id_).spec);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(repo_.AddExecution(spec_id_, std::move(exec).value()).ok());
  ASSERT_TRUE(engine_->Search(owner_, {"disorder"}).ok());
  EXPECT_EQ(engine_->cache_stats().hits, 1);
}

TEST_F(EngineTest, CatchesUpToAppendsAfterConstruction) {
  // Spec + execution appended after the engine pinned its view: every
  // entry point must observe them (delta catch-up, not a rebuild).
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  int sid =
      repo_.AddSpecification(std::move(spec).value(), DiseasePolicy())
          .value();
  auto exec = RunDiseaseExecution(repo_.entry(sid).spec);
  ASSERT_TRUE(exec.ok());
  ExecutionId eid =
      repo_.AddExecution(sid, std::move(exec).value()).value();

  auto found = engine_->ExecutionByOrdinal(sid, 0);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found.value()->id, eid);
  EXPECT_FALSE(engine_->ExecutionByOrdinal(sid, 1).ok());
  ASSERT_NE(engine_->SpecEntryAt(sid), nullptr);
  EXPECT_EQ(engine_->SpecEntryAt(sid)->id, sid);
  EXPECT_EQ(engine_->SpecEntryAt(99), nullptr);
  auto lineage = engine_->Lineage(owner_, eid, DataItemId(19));
  EXPECT_TRUE(lineage.ok()) << lineage.status().ToString();
}

TEST_F(EngineTest, IncrementalAnswersMatchFreshEngine) {
  // Append more entries, query the long-lived engine (delta catch-up),
  // and compare against an engine built from scratch on the final
  // repository state.
  for (int i = 0; i < 3; ++i) {
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    int sid =
        repo_.AddSpecification(std::move(spec).value(), DiseasePolicy())
            .value();
    auto exec = RunDiseaseExecution(repo_.entry(sid).spec);
    ASSERT_TRUE(exec.ok());
    ASSERT_TRUE(repo_.AddExecution(sid, std::move(exec).value()).ok());
  }
  QueryEngine fresh(repo_, acl_);
  for (const char* term : {"disorder", "database queries", "reformat"}) {
    auto incremental = engine_->Search(owner_, {term});
    auto baseline = fresh.Search(owner_, {term});
    ASSERT_TRUE(incremental.ok());
    ASSERT_TRUE(baseline.ok());
    ASSERT_EQ(incremental.value().size(), baseline.value().size())
        << term;
    for (size_t i = 0; i < baseline.value().size(); ++i) {
      EXPECT_EQ(incremental.value()[i].spec_id,
                baseline.value()[i].spec_id);
      EXPECT_DOUBLE_EQ(incremental.value()[i].score,
                       baseline.value()[i].score);
    }
  }
}

TEST_F(EngineTest, ViewCacheStaysHotAcrossExecutionIngest) {
  // Memoized views depend only on immutable spec/execution entries, so
  // execution ingest (the E13 steady state) must not cost view-cache
  // misses.
  PrivacyViewCache local;
  EngineOptions opts;
  opts.view_cache_instance = &local;
  QueryEngine engine(repo_, acl_, opts);
  StructuralPattern pattern;
  pattern.vars = {{"expand snp"}, {"consult external"}};
  pattern.edges = {{0, 1, true}};
  ASSERT_TRUE(engine.Lineage(analyst_, exec_id_, DataItemId(19)).ok());
  ASSERT_TRUE(engine.Structural(analyst_, spec_id_, pattern).ok());
  const uint64_t cold_misses = local.stats().misses;

  auto exec = RunDiseaseExecution(repo_.entry(spec_id_).spec);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(repo_.AddExecution(spec_id_, std::move(exec).value()).ok());

  ASSERT_TRUE(engine.Lineage(analyst_, exec_id_, DataItemId(19)).ok());
  ASSERT_TRUE(engine.Structural(analyst_, spec_id_, pattern).ok());
  EXPECT_EQ(local.stats().misses, cold_misses);
  EXPECT_GE(local.stats().hits, 2u);
}

TEST_F(EngineTest, InvalidateSpecViewsEvictsOnlyThatSpec) {
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  const int sid2 =
      repo_.AddSpecification(std::move(spec).value(), DiseasePolicy())
          .value();
  auto exec = RunDiseaseExecution(repo_.entry(sid2).spec);
  ASSERT_TRUE(exec.ok());
  const ExecutionId eid2 =
      repo_.AddExecution(sid2, std::move(exec).value()).value();

  PrivacyViewCache local;
  EngineOptions opts;
  opts.view_cache_instance = &local;
  QueryEngine engine(repo_, acl_, opts);
  ASSERT_TRUE(engine.Lineage(analyst_, exec_id_, DataItemId(19)).ok());
  ASSERT_TRUE(engine.Lineage(analyst_, eid2, DataItemId(19)).ok());

  engine.InvalidateSpecViews(spec_id_);
  const uint64_t misses = local.stats().misses;
  // The untouched spec's views are still hot...
  ASSERT_TRUE(engine.Lineage(analyst_, eid2, DataItemId(19)).ok());
  EXPECT_EQ(local.stats().misses, misses);
  // ...while the invalidated spec's views recompute exactly once.
  ASSERT_TRUE(engine.Lineage(analyst_, exec_id_, DataItemId(19)).ok());
  EXPECT_EQ(local.stats().misses, misses + 1);
  ASSERT_TRUE(engine.Lineage(analyst_, exec_id_, DataItemId(19)).ok());
  EXPECT_EQ(local.stats().misses, misses + 1);
}

TEST_F(EngineTest, ExecutionMaskIsCachedPerLevel) {
  PrivacyViewCache local;
  EngineOptions opts;
  opts.view_cache_instance = &local;
  QueryEngine engine(repo_, acl_, opts);
  auto first = engine.ExecutionMask(analyst_, exec_id_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = engine.ExecutionMask(analyst_, exec_id_);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(local.stats().hits, 1u);
  EXPECT_EQ(second.value()->visible, first.value()->visible);
  // A different level is a different entry — and a different mask.
  auto for_owner = engine.ExecutionMask(owner_, exec_id_);
  ASSERT_TRUE(for_owner.ok());
  EXPECT_GT(for_owner.value()->num_visible, first.value()->num_visible);
  EXPECT_FALSE(engine.ExecutionMask(analyst_, ExecutionId(99)).ok());
}

TEST_F(EngineTest, PrivacyViewsSharedAcrossGroupsAtOneLevel) {
  PrivacyViewCache local;
  EngineOptions opts;
  opts.view_cache_instance = &local;
  QueryEngine engine(repo_, acl_, opts);
  // The analyst is level 1 in "lab"; the clinician is level 1 in
  // "clinic". Each view the analyst's call memoizes must serve the
  // clinician's call as a hit, with the same answer.
  const PrincipalId clinician =
      acl_.AddPrincipal("clinician", 1, "clinic").value();

  auto lab_lineage = engine.Lineage(analyst_, exec_id_, DataItemId(19));
  ASSERT_TRUE(lab_lineage.ok()) << lab_lineage.status().ToString();
  uint64_t hits = local.stats().hits;
  auto clinic_lineage = engine.Lineage(clinician, exec_id_, DataItemId(19));
  ASSERT_TRUE(clinic_lineage.ok());
  EXPECT_EQ(local.stats().hits, hits + 1);
  EXPECT_EQ(clinic_lineage.value().prefix, lab_lineage.value().prefix);
  EXPECT_EQ(clinic_lineage.value().zoom_steps,
            lab_lineage.value().zoom_steps);
  EXPECT_EQ(clinic_lineage.value().rows, lab_lineage.value().rows);

  StructuralPattern pattern;
  pattern.vars = {{"expand snp"}, {"consult external"}};
  pattern.edges = {{0, 1, true}};
  auto lab_matches = engine.Structural(analyst_, spec_id_, pattern);
  ASSERT_TRUE(lab_matches.ok());
  ASSERT_FALSE(lab_matches.value().empty());
  hits = local.stats().hits;
  auto clinic_matches = engine.Structural(clinician, spec_id_, pattern);
  ASSERT_TRUE(clinic_matches.ok());
  EXPECT_EQ(local.stats().hits, hits + 1);
  ASSERT_EQ(clinic_matches.value().size(), lab_matches.value().size());
  for (size_t m = 0; m < lab_matches.value().size(); ++m) {
    EXPECT_EQ(clinic_matches.value()[m].binding,
              lab_matches.value()[m].binding);
  }

  bool cache_hit = true;
  auto lab_mask = engine.ExecutionMask(analyst_, exec_id_, &cache_hit);
  ASSERT_TRUE(lab_mask.ok());
  EXPECT_FALSE(cache_hit);
  hits = local.stats().hits;
  auto clinic_mask = engine.ExecutionMask(clinician, exec_id_, &cache_hit);
  ASSERT_TRUE(clinic_mask.ok());
  EXPECT_TRUE(cache_hit);
  EXPECT_EQ(local.stats().hits, hits + 1);
  // Not merely equal: the one memoized report serves both groups.
  EXPECT_EQ(clinic_mask.value().get(), lab_mask.value().get());

  // The owner shares the analyst's group but not the level: a miss.
  const uint64_t misses = local.stats().misses;
  ASSERT_TRUE(engine.ExecutionMask(owner_, exec_id_).ok());
  EXPECT_EQ(local.stats().misses, misses + 1);
}

// Randomized equivalence: a view-cache-enabled engine and a
// cache-disabled engine must give byte-identical answers across random
// policy / level / principal / query mixes over generated workloads, and
// every cached keyword search must equal the search run directly at the
// principal's level. The principals span two groups per level, so the
// level-keyed memos are shared across groups throughout.
TEST(EngineViewCacheFuzzTest, CachedAnswersMatchUncached) {
  Repository repo;
  AccessControl acl;
  Rng rng(20260808);
  WorkloadParams params;
  params.depth = 3;
  params.modules_per_workflow = 5;
  params.composite_prob = 0.5;
  params.vocabulary = 12;
  params.max_level = 3;
  std::vector<int> spec_ids;
  for (int s = 0; s < 3; ++s) {
    auto spec =
        GenerateSpec(params, &rng, "fuzz spec " + std::to_string(s));
    ASSERT_TRUE(spec.ok());
    // Random per-spec policy: data level 1 or 2, plus a structural
    // requirement inside one non-root workflow when available.
    PolicySet policy;
    policy.data.default_level = 1 + s % 2;
    const Module* src = nullptr;
    const Module* dst = nullptr;
    for (const Module& m : spec.value().modules()) {
      if (m.kind == ModuleKind::kAtomic &&
          m.workflow != spec.value().root()) {
        if (src == nullptr || m.workflow != src->workflow) {
          src = &m;
          dst = nullptr;
        } else {
          dst = &m;
        }
      }
    }
    if (src != nullptr && dst != nullptr) {
      policy.structural_reqs.push_back(
          {src->code, dst->code, /*required_level=*/2});
    }
    const int sid =
        repo.AddSpecification(std::move(spec).value(), std::move(policy))
            .value();
    spec_ids.push_back(sid);
    for (int e = 0; e < 2; ++e) {
      auto exec = GenerateExecution(repo.entry(sid).spec, &rng);
      ASSERT_TRUE(exec.ok());
      ASSERT_TRUE(repo.AddExecution(sid, std::move(exec).value()).ok());
    }
  }
  std::vector<PrincipalId> principals;
  for (int level = 0; level <= 3; ++level) {
    for (const char* group : {"ga", "gb"}) {
      principals.push_back(
          acl.AddPrincipal(std::string(group) + std::to_string(level),
                           level, group)
              .value());
    }
  }

  PrivacyViewCache local;
  EngineOptions cached_opts;
  cached_opts.view_cache_instance = &local;
  QueryEngine cached(repo, acl, cached_opts);
  EngineOptions plain_opts;
  plain_opts.view_cache = false;
  QueryEngine plain(repo, acl, plain_opts);

  // The reference for KEYWORD_SEARCH: the search itself, run directly
  // at the principal's level on a fresh cut, with no result cache. It is
  // memoized per (level, term) because an uncached search of these specs
  // enumerates large prefix lattices (hundreds of ms unoptimized).
  const RepositoryView cut = repo.View();
  InvertedIndex index;
  index.Build(cut);
  TfIdfScorer scorer;
  scorer.Build(index);
  std::map<std::pair<AccessLevel, std::string>, std::vector<KeywordAnswer>>
      reference;

  Rng fuzz(99);
  for (int i = 0; i < 150; ++i) {
    const PrincipalId p =
        principals[fuzz.Uniform(principals.size())];
    switch (fuzz.Uniform(4)) {
      case 0: {
        const int sid =
            spec_ids[fuzz.Uniform(spec_ids.size())];
        StructuralPattern pattern;
        pattern.vars = {{"kw" + std::to_string(fuzz.Uniform(12))},
                        {"kw" + std::to_string(fuzz.Uniform(12))}};
        pattern.edges = {{0, 1, fuzz.Uniform(2) == 0}};
        auto a = cached.Structural(p, sid, pattern);
        auto b = plain.Structural(p, sid, pattern);
        ASSERT_EQ(a.ok(), b.ok());
        if (!a.ok()) break;
        ASSERT_EQ(a.value().size(), b.value().size());
        for (size_t m = 0; m < a.value().size(); ++m) {
          EXPECT_EQ(a.value()[m].binding, b.value()[m].binding);
        }
        break;
      }
      case 1: {
        const ExecutionId e(static_cast<int32_t>(
            fuzz.Uniform(static_cast<uint64_t>(repo.num_executions()))));
        auto a = cached.Lineage(p, e, DataItemId(0));
        auto b = plain.Lineage(p, e, DataItemId(0));
        ASSERT_EQ(a.ok(), b.ok()) << a.status().ToString() << " vs "
                                  << b.status().ToString();
        if (!a.ok()) break;
        EXPECT_EQ(a.value().prefix, b.value().prefix);
        EXPECT_EQ(a.value().zoom_steps, b.value().zoom_steps);
        EXPECT_EQ(a.value().rows, b.value().rows);
        break;
      }
      case 2: {
        const ExecutionId e(static_cast<int32_t>(
            fuzz.Uniform(static_cast<uint64_t>(repo.num_executions()))));
        auto a = cached.ExecutionMask(p, e);
        auto b = plain.ExecutionMask(p, e);
        ASSERT_EQ(a.ok(), b.ok());
        if (!a.ok()) break;
        EXPECT_EQ(a.value()->visible, b.value()->visible);
        EXPECT_EQ(a.value()->num_masked, b.value()->num_masked);
        EXPECT_EQ(a.value()->num_visible, b.value()->num_visible);
        break;
      }
      case 3: {
        const std::string term = "kw" + std::to_string(fuzz.Uniform(2));
        const AccessLevel level = acl.Get(p).value().level;
        auto a = cached.Search(p, {term});
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        auto [want, fresh] = reference.try_emplace({level, term});
        if (fresh) {
          auto b = KeywordSearch(cut, &index, &scorer, {term}, level);
          ASSERT_TRUE(b.ok()) << b.status().ToString();
          want->second = std::move(b).value();
        }
        ExpectSameAnswers(a.value(), want->second);
        break;
      }
    }
  }
  // Keyword terms repeat across principals of one level, so the result
  // cache served some searches.
  EXPECT_GT(cached.cache_stats().hits, 0);
  // The mix repeats (principal-group, entry) pairs, so the cached
  // engine must actually have served from the cache.
  EXPECT_GT(local.stats().hits, 0u);
}

}  // namespace
}  // namespace paw
