#include "src/query/engine.h"

#include <algorithm>

#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/graph/algorithms.h"
#include "src/privacy/data_privacy.h"

namespace paw {
namespace {

Counter& ViewComputationsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_privacy_view_computations_total");
  return c;
}

Counter& ZoomOutStepsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_privacy_zoom_out_steps_total");
  return c;
}

Counter& LineageConesTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_privacy_lineage_cones_total");
  return c;
}

Counter& CacheHitsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_query_cache_hits_total");
  return c;
}

Counter& CacheMissesTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_query_cache_misses_total");
  return c;
}

Counter& EngineCatchupsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_query_engine_catchups_total");
  return c;
}

/// Appends `Execution::ItemName(d)` ("d17") to `out`.
void AppendItemName(DataItemId d, std::string* out) {
  out->push_back('d');
  AppendInt(d.value(), out);
}

}  // namespace

QueryEngine::QueryEngine(const Repository& repo, const AccessControl& acl,
                         EngineOptions options)
    : repo_(repo),
      acl_(acl),
      options_(options),
      view_ns_(PrivacyViewCache::NewNamespace()),
      cache_(options.cache_capacity) {
  view_ = repo_.View();
  index_.Build(view_);
  scorer_.Build(index_);
}

QueryEngine::~QueryEngine() {
  if (PrivacyViewCache* vc = view_cache()) {
    vc->InvalidateNamespace(view_ns_);
  }
}

PrivacyViewCache* QueryEngine::view_cache() const {
  if (!options_.view_cache) return nullptr;
  return options_.view_cache_instance != nullptr
             ? options_.view_cache_instance
             : &PrivacyViewCache::Global();
}

void QueryEngine::InvalidateSpecViews(int spec_id) {
  if (PrivacyViewCache* vc = view_cache()) {
    vc->InvalidateSpec(view_ns_, spec_id);
  }
}

void QueryEngine::CatchUp() {
  // Freshness floor: the epoch observed at request entry. The served cut
  // may be newer (another catch-up can slip in), never older.
  const uint64_t target = repo_.mutation_epoch();
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (view_.epoch >= target) return;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (view_.epoch >= target) return;
  repo_.ExtendView(&view_);
  index_.ExtendTo(view_);
  EngineCatchupsTotal().Add();
}

void QueryEngine::RefreshIndexes() { CatchUp(); }

CacheStats QueryEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.stats();
}

Result<std::vector<KeywordAnswer>> QueryEngine::Search(
    PrincipalId principal, const std::vector<std::string>& terms) {
  PAW_ASSIGN_OR_RETURN(Principal p, acl_.Get(principal));
  const std::string level = std::to_string(p.level);
  const std::string key = "kw:" + Join(terms, ",");
  CatchUp();
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Keyword answers depend only on the cut's spec slice, and specs are
  // append-only — so the spec count is the answer-invalidating epoch.
  // Execution ingest leaves cached keyword answers live.
  const uint64_t cache_epoch = static_cast<uint64_t>(view_.num_specs());
  std::optional<std::vector<KeywordAnswer>> hit;
  {
    std::lock_guard<std::mutex> cl(cache_mu_);
    hit = cache_.Get(level, key, cache_epoch);
  }
  if (hit.has_value()) {
    CacheHitsTotal().Add();
    return std::move(*hit);
  }
  CacheMissesTotal().Add();
  PAW_ASSIGN_OR_RETURN(
      std::vector<KeywordAnswer> answers,
      KeywordSearch(view_, &index_, &scorer_, terms, p.level,
                    options_.search));
  {
    std::lock_guard<std::mutex> cl(cache_mu_);
    cache_.Put(level, key, answers, cache_epoch);
  }
  return answers;
}

Result<LineageAnswer> QueryEngine::RenderCone(
    const SpecEntry& spec_entry, int spec_id, ExecutionId exec_id,
    const Execution& exec, const Principal& p,
    const std::vector<NodeIndex>& cone, DataItemId item,
    uint64_t cut_epoch) const {
  // 1. Structural zoom-out from the principal's access view — memoized
  // per (execution, level): the result depends only on the immutable
  // execution entry, the spec's policy, and the level.
  PrivacyViewCache* vc = view_cache();
  std::shared_ptr<const ExecZoomOutResult> zoomed_ptr;
  if (vc != nullptr) {
    zoomed_ptr = vc->GetExecZoom(view_ns_, exec_id, p.level, cut_epoch);
  }
  if (zoomed_ptr == nullptr) {
    PAW_ASSIGN_OR_RETURN(
        ExecZoomOutResult fresh,
        ZoomOutExecution(exec, spec_entry.hierarchy, spec_entry.policy,
                         p.level));
    ZoomOutStepsTotal().Add(static_cast<uint64_t>(
        fresh.steps > 0 ? fresh.steps : 0));
    zoomed_ptr = std::make_shared<const ExecZoomOutResult>(std::move(fresh));
    if (vc != nullptr) {
      vc->PutExecZoom(view_ns_, exec_id, spec_id, p.level, cut_epoch,
                      zoomed_ptr);
    }
  }
  const ExecZoomOutResult& zoomed = *zoomed_ptr;
  const ExecView& view = zoomed.view;
  LineageConesTotal().Add();

  // 2. Restrict to the cone's view nodes.
  std::vector<bool> in_cone(static_cast<size_t>(view.num_nodes()), false);
  for (NodeIndex n : cone) {
    PAW_ASSIGN_OR_RETURN(NodeIndex v, view.ViewNodeOf(ExecNodeId(n)));
    in_cone[static_cast<size_t>(v)] = true;
  }

  // 3. Render with data masking, one row per visible edge in the cone.
  LineageAnswer answer;
  answer.prefix = zoomed.final_prefix;
  answer.zoom_steps = zoomed.steps;
  const DataPolicy& data_policy = spec_entry.policy.data;
  auto append_value = [&](DataItemId d, std::string* out) {
    const DataItem& it = exec.item(d);
    if (data_policy.LevelOf(it.label) <= p.level) {
      out->append(it.value);
    } else {
      out->append(kMaskedValue);
    }
  };
  for (NodeIndex u = 0; u < view.num_nodes(); ++u) {
    if (!in_cone[static_cast<size_t>(u)]) continue;
    for (NodeIndex v : view.OutNeighbors(u)) {
      if (!in_cone[static_cast<size_t>(v)]) continue;
      std::string row;
      view.AppendNodeLabel(u, &row);
      row.append(" -> ");
      view.AppendNodeLabel(v, &row);
      row.append(" [");
      bool first = true;
      for (DataItemId d : view.ItemsOn(u, v)) {
        if (!first) row.append(", ");
        first = false;
        AppendItemName(d, &row);
        row.push_back('=');
        append_value(d, &row);
      }
      row.push_back(']');
      answer.rows.push_back(std::move(row));
    }
  }
  // The queried item itself (its carrying edge leaves the ancestor cone,
  // so it would otherwise be absent from the rows).
  if (item.valid()) {
    PAW_ASSIGN_OR_RETURN(NodeIndex producer_view,
                         view.ViewNodeOf(exec.item(item).producer));
    std::string row;
    AppendItemName(item, &row);
    row.append(" = ");
    append_value(item, &row);
    row.append(" (produced by ");
    view.AppendNodeLabel(producer_view, &row);
    row.push_back(')');
    answer.rows.push_back(std::move(row));
  }
  return answer;
}

Result<LineageAnswer> QueryEngine::Lineage(PrincipalId principal,
                                           ExecutionId exec_id,
                                           DataItemId item) {
  PAW_ASSIGN_OR_RETURN(Principal p, acl_.Get(principal));
  CatchUp();
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (exec_id.value() < 0 || exec_id.value() >= view_.num_executions()) {
    return Status::NotFound("unknown execution");
  }
  const ExecutionEntry& entry = view_.execution(exec_id);
  const SpecEntry& spec_entry = view_.entry(entry.spec_id);
  const Execution& exec = entry.exec;
  if (item.value() < 0 || item.value() >= exec.num_items()) {
    return Status::NotFound("unknown data item");
  }
  const std::vector<NodeIndex> cone =
      CanReach(exec.graph(), exec.item(item).producer.value());
  return RenderCone(spec_entry, entry.spec_id, exec_id, exec, p, cone, item,
                    view_.epoch);
}

Result<const ExecutionEntry*> QueryEngine::ExecutionByOrdinal(int spec_id,
                                                              int ordinal) {
  if (ordinal < 0) return Status::InvalidArgument("negative ordinal");
  CatchUp();
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (spec_id < 0 || spec_id >= view_.num_specs()) {
    return Status::NotFound("unknown spec");
  }
  int seen = 0;
  for (const ExecutionEntry* e : view_.execs) {
    if (e->spec_id != spec_id) continue;
    if (seen == ordinal) return e;
    ++seen;
  }
  return Status::NotFound("has " + std::to_string(seen) +
                          " execution(s); no #" + std::to_string(ordinal));
}

const SpecEntry* QueryEngine::SpecEntryAt(int spec_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (spec_id < 0 || spec_id >= view_.num_specs()) return nullptr;
  return view_.specs[static_cast<size_t>(spec_id)];
}

Result<std::vector<QueryEngine::ExecutionSearchResult>>
QueryEngine::SearchExecutions(PrincipalId principal,
                              const StructuralPattern& pattern,
                              int provenance_var) {
  PAW_ASSIGN_OR_RETURN(Principal p, acl_.Get(principal));
  if (provenance_var < 0 ||
      provenance_var >= static_cast<int>(pattern.vars.size())) {
    return Status::InvalidArgument("provenance_var out of range");
  }
  CatchUp();
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ExecutionSearchResult> results;
  for (int e = 0; e < view_.num_executions(); ++e) {
    const ExecutionEntry& entry = view_.execution(ExecutionId(e));
    const SpecEntry& spec_entry = view_.entry(entry.spec_id);
    const Execution& exec = entry.exec;
    // Visibility: only modules inside the principal's access view may
    // participate in a match.
    Prefix access =
        spec_entry.hierarchy.AccessPrefix(spec_entry.spec, p.level);
    auto visible = [&](ModuleId m) {
      return access.count(spec_entry.spec.module(m).workflow) > 0;
    };
    PAW_ASSIGN_OR_RETURN(std::vector<ExecutionMatch> matches,
                         MatchExecution(exec, pattern, visible));
    if (matches.empty()) continue;
    ExecutionSearchResult hit;
    hit.exec_id = ExecutionId(e);
    hit.match = matches.front();
    hit.num_matches = static_cast<int>(matches.size());
    ExecNodeId target =
        hit.match.binding[static_cast<size_t>(provenance_var)];
    PAW_ASSIGN_OR_RETURN(
        hit.provenance,
        RenderCone(spec_entry, entry.spec_id, ExecutionId(e), exec, p,
                   CanReach(exec.graph(), target.value()), DataItemId(),
                   view_.epoch));
    results.push_back(std::move(hit));
  }
  return results;
}

Result<std::vector<PatternMatch>> QueryEngine::Structural(
    PrincipalId principal, int spec_id, const StructuralPattern& pattern) {
  PAW_ASSIGN_OR_RETURN(Principal p, acl_.Get(principal));
  CatchUp();
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (spec_id < 0 || spec_id >= view_.num_specs()) {
    return Status::NotFound("unknown spec");
  }
  const SpecEntry& entry = view_.entry(spec_id);
  // The access view depends only on the immutable spec entry and the
  // principal's level — memoize it and run the pattern match against the
  // shared copy.
  PrivacyViewCache* vc = view_cache();
  std::shared_ptr<const SpecView> view;
  if (vc != nullptr) {
    view = vc->GetSpecView(view_ns_, spec_id, p.level, view_.epoch);
  }
  if (view == nullptr) {
    Prefix access = entry.hierarchy.AccessPrefix(entry.spec, p.level);
    PAW_ASSIGN_OR_RETURN(
        SpecView fresh, ExpandPrefix(entry.spec, entry.hierarchy, access));
    ViewComputationsTotal().Add();
    view = std::make_shared<const SpecView>(std::move(fresh));
    if (vc != nullptr) {
      vc->PutSpecView(view_ns_, spec_id, p.level, view_.epoch, view);
    }
  }
  return MatchPattern(*view, pattern);
}

Result<std::shared_ptr<const MaskingReport>> QueryEngine::ExecutionMask(
    PrincipalId principal, ExecutionId exec_id, bool* cache_hit) {
  PAW_ASSIGN_OR_RETURN(Principal p, acl_.Get(principal));
  CatchUp();
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (exec_id.value() < 0 || exec_id.value() >= view_.num_executions()) {
    return Status::NotFound("unknown execution");
  }
  const ExecutionEntry& entry = view_.execution(exec_id);
  const SpecEntry& spec_entry = view_.entry(entry.spec_id);
  PrivacyViewCache* vc = view_cache();
  std::shared_ptr<const MaskingReport> mask;
  if (vc != nullptr) {
    mask = vc->GetMasking(view_ns_, exec_id, p.level, view_.epoch);
  }
  if (cache_hit != nullptr) *cache_hit = mask != nullptr;
  if (mask == nullptr) {
    mask = std::make_shared<const MaskingReport>(
        ComputeMasking(entry.exec, spec_entry.policy.data, p.level));
    if (vc != nullptr) {
      vc->PutMasking(view_ns_, exec_id, entry.spec_id, p.level,
                     view_.epoch, mask);
    }
  }
  return mask;
}

}  // namespace paw
