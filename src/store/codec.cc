#include "src/store/codec.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "src/common/crc32.h"
#include "src/workflow/builder.h"

namespace paw {
namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what +
                                 " payload");
}

// Decode helpers that funnel every framing failure into one error.
bool GetStr(std::string_view buf, size_t* pos, std::string_view* v) {
  return GetLengthPrefixed(buf, pos, v);
}

bool GetLevel(std::string_view buf, size_t* pos, AccessLevel* level) {
  uint32_t raw = 0;
  if (!GetVarint32(buf, pos, &raw)) return false;
  *level = UnZigZag32(raw);
  return true;
}

void PutLevel(std::string* out, AccessLevel level) {
  PutVarint32(out, ZigZag32(level));
}

}  // namespace

std::string EncodeSpecPayloadV2(const Specification& spec,
                                const PolicySet& policy) {
  std::string out;
  out.reserve(256);
  PutLengthPrefixed(&out, spec.name());
  PutVarint32(&out, static_cast<uint32_t>(spec.num_workflows()));
  PutVarint32(&out, static_cast<uint32_t>(spec.root().value()));
  for (const Workflow& w : spec.workflows()) {
    PutLengthPrefixed(&out, w.code);
    PutLengthPrefixed(&out, w.name);
    PutLevel(&out, w.required_level);
  }
  PutVarint32(&out, static_cast<uint32_t>(spec.num_modules()));
  for (const Module& m : spec.modules()) {
    PutLengthPrefixed(&out, m.code);
    PutVarint32(&out, static_cast<uint32_t>(m.workflow.value()));
    out.push_back(static_cast<char>(m.kind));
    PutLengthPrefixed(&out, m.name);
    PutVarint32(&out, static_cast<uint32_t>(m.expansion.value() + 1));
    PutVarint32(&out, static_cast<uint32_t>(m.keywords.size()));
    for (const std::string& kw : m.keywords) PutLengthPrefixed(&out, kw);
  }
  size_t num_edges = 0;
  for (const Workflow& w : spec.workflows()) num_edges += w.edges.size();
  PutVarint32(&out, static_cast<uint32_t>(num_edges));
  for (const Workflow& w : spec.workflows()) {
    for (const DataflowEdge& e : w.edges) {
      PutVarint32(&out, static_cast<uint32_t>(e.src.value()));
      PutVarint32(&out, static_cast<uint32_t>(e.dst.value()));
      PutVarint32(&out, static_cast<uint32_t>(e.labels.size()));
      for (const std::string& label : e.labels) {
        PutLengthPrefixed(&out, label);
      }
    }
  }
  PutLevel(&out, policy.data.default_level);
  PutVarint32(&out, static_cast<uint32_t>(policy.data.label_level.size()));
  for (const auto& [label, level] : policy.data.label_level) {
    PutLengthPrefixed(&out, label);
    PutLevel(&out, level);
  }
  PutVarint32(&out, static_cast<uint32_t>(policy.module_reqs.size()));
  for (const ModulePrivacyRequirement& r : policy.module_reqs) {
    PutLengthPrefixed(&out, r.module_code);
    PutVarint64(&out, ZigZag64(r.gamma));
    PutLevel(&out, r.required_level);
  }
  PutVarint32(&out, static_cast<uint32_t>(policy.structural_reqs.size()));
  for (const StructuralPrivacyRequirement& r : policy.structural_reqs) {
    PutLengthPrefixed(&out, r.src_code);
    PutLengthPrefixed(&out, r.dst_code);
    PutLevel(&out, r.required_level);
  }
  return out;
}

Result<DecodedSpec> DecodeSpecPayloadV2(std::string_view payload) {
  size_t pos = 0;
  std::string_view name;
  uint32_t num_workflows = 0, root = 0;
  if (!GetStr(payload, &pos, &name) ||
      !GetVarint32(payload, &pos, &num_workflows) ||
      !GetVarint32(payload, &pos, &root) || root >= num_workflows) {
    return Malformed("spec-v2");
  }
  SpecBuilder builder{std::string(name)};
  for (uint32_t i = 0; i < num_workflows; ++i) {
    std::string_view code, wf_name;
    AccessLevel level = 0;
    if (!GetStr(payload, &pos, &code) ||
        !GetStr(payload, &pos, &wf_name) ||
        !GetLevel(payload, &pos, &level)) {
      return Malformed("spec-v2");
    }
    builder.AddWorkflow(std::string(code), std::string(wf_name), level);
  }
  PAW_RETURN_NOT_OK(builder.SetRoot(WorkflowId(static_cast<int32_t>(root))));

  uint32_t num_modules = 0;
  if (!GetVarint32(payload, &pos, &num_modules)) return Malformed("spec-v2");
  struct CompositeRef {
    ModuleId module;
    uint32_t expansion;
  };
  std::vector<CompositeRef> composites;
  for (uint32_t i = 0; i < num_modules; ++i) {
    std::string_view code, mod_name;
    uint32_t workflow = 0, expansion_plus_1 = 0, num_keywords = 0;
    if (!GetStr(payload, &pos, &code) ||
        !GetVarint32(payload, &pos, &workflow) ||
        workflow >= num_workflows || pos >= payload.size()) {
      return Malformed("spec-v2");
    }
    const uint8_t kind_byte = static_cast<uint8_t>(payload[pos++]);
    if (kind_byte > static_cast<uint8_t>(ModuleKind::kOutput)) {
      return Malformed("spec-v2");
    }
    const ModuleKind kind = static_cast<ModuleKind>(kind_byte);
    if (!GetStr(payload, &pos, &mod_name) ||
        !GetVarint32(payload, &pos, &expansion_plus_1) ||
        expansion_plus_1 > num_workflows ||
        !GetVarint32(payload, &pos, &num_keywords)) {
      return Malformed("spec-v2");
    }
    if ((kind == ModuleKind::kComposite) != (expansion_plus_1 != 0)) {
      return Status::InvalidArgument(
          "spec-v2 payload: expansion set on non-composite module (or "
          "missing on a composite)");
    }
    std::vector<std::string> keywords;
    keywords.reserve(std::min<uint32_t>(num_keywords, 64));
    for (uint32_t k = 0; k < num_keywords; ++k) {
      std::string_view kw;
      if (!GetStr(payload, &pos, &kw)) return Malformed("spec-v2");
      keywords.emplace_back(kw);
    }
    const WorkflowId w(static_cast<int32_t>(workflow));
    ModuleId id;
    switch (kind) {
      case ModuleKind::kInput:
      case ModuleKind::kOutput: {
        id = kind == ModuleKind::kInput
                 ? builder.AddInput(w, std::string(code))
                 : builder.AddOutput(w, std::string(code));
        // AddInput/AddOutput stamp a fixed default keyword; any extras
        // were appended via AddKeywords and are restored the same way.
        const std::string def =
            kind == ModuleKind::kInput ? "input" : "output";
        if (keywords.empty() || keywords[0] != def) {
          return Malformed("spec-v2");
        }
        if (keywords.size() > 1) {
          PAW_RETURN_NOT_OK(builder.AddKeywords(
              id, std::vector<std::string>(keywords.begin() + 1,
                                           keywords.end())));
        }
        break;
      }
      case ModuleKind::kAtomic:
      case ModuleKind::kComposite:
        id = builder.AddModule(w, std::string(code), std::string(mod_name),
                               std::move(keywords));
        if (kind == ModuleKind::kComposite) {
          composites.push_back({id, expansion_plus_1 - 1});
        }
        break;
    }
  }
  for (const CompositeRef& c : composites) {
    PAW_RETURN_NOT_OK(builder.MakeComposite(
        c.module, WorkflowId(static_cast<int32_t>(c.expansion))));
  }

  uint32_t num_edges = 0;
  if (!GetVarint32(payload, &pos, &num_edges)) return Malformed("spec-v2");
  for (uint32_t i = 0; i < num_edges; ++i) {
    uint32_t src = 0, dst = 0, num_labels = 0;
    if (!GetVarint32(payload, &pos, &src) || src >= num_modules ||
        !GetVarint32(payload, &pos, &dst) || dst >= num_modules ||
        !GetVarint32(payload, &pos, &num_labels)) {
      return Malformed("spec-v2");
    }
    std::vector<std::string> labels;
    labels.reserve(std::min<uint32_t>(num_labels, 64));
    for (uint32_t k = 0; k < num_labels; ++k) {
      std::string_view label;
      if (!GetStr(payload, &pos, &label)) return Malformed("spec-v2");
      labels.emplace_back(label);
    }
    PAW_RETURN_NOT_OK(builder.Connect(ModuleId(static_cast<int32_t>(src)),
                                      ModuleId(static_cast<int32_t>(dst)),
                                      std::move(labels)));
  }

  DecodedSpec out;
  PAW_ASSIGN_OR_RETURN(out.spec, std::move(builder).Build());

  uint32_t num_labels = 0, num_module_reqs = 0, num_structural = 0;
  if (!GetLevel(payload, &pos, &out.policy.data.default_level) ||
      !GetVarint32(payload, &pos, &num_labels)) {
    return Malformed("spec-v2");
  }
  for (uint32_t i = 0; i < num_labels; ++i) {
    std::string_view label;
    AccessLevel level = 0;
    if (!GetStr(payload, &pos, &label) ||
        !GetLevel(payload, &pos, &level)) {
      return Malformed("spec-v2");
    }
    out.policy.data.label_level[std::string(label)] = level;
  }
  if (!GetVarint32(payload, &pos, &num_module_reqs)) {
    return Malformed("spec-v2");
  }
  for (uint32_t i = 0; i < num_module_reqs; ++i) {
    ModulePrivacyRequirement r;
    std::string_view code;
    uint64_t gamma = 0;
    if (!GetStr(payload, &pos, &code) ||
        !GetVarint64(payload, &pos, &gamma) ||
        !GetLevel(payload, &pos, &r.required_level)) {
      return Malformed("spec-v2");
    }
    r.module_code = std::string(code);
    r.gamma = UnZigZag64(gamma);
    out.policy.module_reqs.push_back(std::move(r));
  }
  if (!GetVarint32(payload, &pos, &num_structural)) {
    return Malformed("spec-v2");
  }
  for (uint32_t i = 0; i < num_structural; ++i) {
    StructuralPrivacyRequirement r;
    std::string_view src, dst;
    if (!GetStr(payload, &pos, &src) || !GetStr(payload, &pos, &dst) ||
        !GetLevel(payload, &pos, &r.required_level)) {
      return Malformed("spec-v2");
    }
    r.src_code = std::string(src);
    r.dst_code = std::string(dst);
    out.policy.structural_reqs.push_back(std::move(r));
  }
  if (pos != payload.size()) return Malformed("spec-v2");
  PAW_RETURN_NOT_OK(ValidatePolicy(out.spec, out.policy));
  return out;
}

std::string EncodeExecutionPayloadV2(int spec_id, const Execution& exec) {
  std::string out;
  out.reserve(64 + static_cast<size_t>(exec.num_nodes()) * 6 +
              static_cast<size_t>(exec.num_items()) * 16);
  PutVarint32(&out, static_cast<uint32_t>(spec_id));
  PutVarint32(&out, static_cast<uint32_t>(exec.num_nodes()));
  for (const ExecNode& n : exec.nodes()) {
    out.push_back(static_cast<char>(n.kind));
    PutVarint32(&out, static_cast<uint32_t>(n.module.value()));
    PutVarint32(&out, ZigZag32(n.process_id));
    PutVarint32(&out, static_cast<uint32_t>(n.enclosing.value() + 1));
  }
  PutVarint32(&out, static_cast<uint32_t>(exec.num_items()));
  for (const DataItem& d : exec.items()) {
    PutLengthPrefixed(&out, d.label);
    PutVarint32(&out, static_cast<uint32_t>(d.producer.value()));
    PutLengthPrefixed(&out, d.value);
  }
  const auto edges = exec.graph().Edges();
  PutVarint32(&out, static_cast<uint32_t>(edges.size()));
  for (const auto& [u, v] : edges) {
    PutVarint32(&out, static_cast<uint32_t>(u));
    PutVarint32(&out, static_cast<uint32_t>(v));
    const auto& items = exec.ItemsOn(ExecNodeId(u), ExecNodeId(v));
    PutVarint32(&out, static_cast<uint32_t>(items.size()));
    for (DataItemId item : items) {
      PutVarint32(&out, static_cast<uint32_t>(item.value()));
    }
  }
  return out;
}

Result<Execution> DecodeExecutionPayloadV2(std::string_view payload,
                                           const Specification& spec) {
  size_t pos = 0;
  uint32_t spec_id = 0, num_nodes = 0;
  if (!GetVarint32(payload, &pos, &spec_id) ||
      !GetVarint32(payload, &pos, &num_nodes)) {
    return Malformed("execution-v2");
  }
  Execution exec(spec);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    if (pos >= payload.size()) return Malformed("execution-v2");
    const uint8_t kind_byte = static_cast<uint8_t>(payload[pos++]);
    if (kind_byte > static_cast<uint8_t>(ExecNodeKind::kEnd)) {
      return Malformed("execution-v2");
    }
    uint32_t module = 0, process_raw = 0, enclosing_plus_1 = 0;
    if (!GetVarint32(payload, &pos, &module) ||
        module >= static_cast<uint32_t>(spec.num_modules()) ||
        !GetVarint32(payload, &pos, &process_raw) ||
        !GetVarint32(payload, &pos, &enclosing_plus_1) ||
        enclosing_plus_1 > i) {  // no forward / self enclosing refs
      return Malformed("execution-v2");
    }
    exec.AddNode(static_cast<ExecNodeKind>(kind_byte),
                 ModuleId(static_cast<int32_t>(module)),
                 UnZigZag32(process_raw),
                 ExecNodeId(static_cast<int32_t>(enclosing_plus_1) - 1));
  }
  uint32_t num_items = 0;
  if (!GetVarint32(payload, &pos, &num_items)) {
    return Malformed("execution-v2");
  }
  for (uint32_t i = 0; i < num_items; ++i) {
    std::string_view label, value;
    uint32_t producer = 0;
    if (!GetStr(payload, &pos, &label) ||
        !GetVarint32(payload, &pos, &producer) || producer >= num_nodes ||
        !GetStr(payload, &pos, &value)) {
      return Malformed("execution-v2");
    }
    exec.AddItem(std::string(label),
                 ExecNodeId(static_cast<int32_t>(producer)),
                 std::string(value));
  }
  uint32_t num_flows = 0;
  if (!GetVarint32(payload, &pos, &num_flows)) {
    return Malformed("execution-v2");
  }
  for (uint32_t i = 0; i < num_flows; ++i) {
    uint32_t from = 0, to = 0, count = 0;
    if (!GetVarint32(payload, &pos, &from) || from >= num_nodes ||
        !GetVarint32(payload, &pos, &to) || to >= num_nodes ||
        !GetVarint32(payload, &pos, &count)) {
      return Malformed("execution-v2");
    }
    std::vector<DataItemId> items;
    items.reserve(std::min<uint32_t>(count, 64));
    for (uint32_t k = 0; k < count; ++k) {
      uint32_t item = 0;
      if (!GetVarint32(payload, &pos, &item) || item >= num_items) {
        return Malformed("execution-v2");
      }
      items.push_back(DataItemId(static_cast<int32_t>(item)));
    }
    PAW_RETURN_NOT_OK(exec.AddFlow(ExecNodeId(static_cast<int32_t>(from)),
                                   ExecNodeId(static_cast<int32_t>(to)),
                                   items));
  }
  if (pos != payload.size()) return Malformed("execution-v2");
  return exec;
}

Result<int> DecodeExecutionSpecId(std::string_view payload) {
  size_t pos = 0;
  uint32_t id = 0;
  if (!GetVarint32(payload, &pos, &id)) return Malformed("execution");
  if (id > static_cast<uint32_t>(std::numeric_limits<int32_t>::max())) {
    return Status::InvalidArgument("execution record spec id overflows: " +
                                   std::to_string(id));
  }
  return static_cast<int>(id);
}

// ---- Replay -----------------------------------------------------------------

Status ApplyRecord(const Record& record, Repository* repo) {
  switch (record.type) {
    case RecordType::kSpecV2: {
      PAW_ASSIGN_OR_RETURN(DecodedSpec decoded,
                           DecodeSpecPayloadV2(record.payload));
      return repo
          ->AddSpecification(std::move(decoded.spec),
                             std::move(decoded.policy))
          .status();
    }
    case RecordType::kExecutionV2: {
      PAW_ASSIGN_OR_RETURN(const int spec_id,
                           DecodeExecutionSpecId(record.payload));
      if (spec_id >= repo->num_specs()) {
        return Status::InvalidArgument(
            "execution record references unknown spec " +
            std::to_string(spec_id));
      }
      PAW_ASSIGN_OR_RETURN(
          Execution exec,
          DecodeExecutionPayloadV2(record.payload,
                                   repo->entry(spec_id).spec));
      return repo->AddExecution(spec_id, std::move(exec)).status();
    }
    case RecordType::kWalHeader:
    case RecordType::kSnapshotHeader:
      return Status::InvalidArgument(
          std::string("cannot apply record of type ") +
          std::string(RecordTypeName(record.type)));
  }
  if (IsRetiredTextRecord(record.type)) {
    return Status::FailedPrecondition(
        "v1 text record (type " +
        std::to_string(static_cast<int>(record.type)) +
        ") is no longer readable; only binary payloads are supported");
  }
  return Status::InvalidArgument("unknown record type");
}

PersistMeta MakePersistMeta(uint64_t lsn, std::string_view payload,
                            std::string_view origin) {
  PersistMeta meta;
  meta.lsn = lsn;
  meta.payload_crc = Crc32(payload);
  meta.payload_bytes = static_cast<uint32_t>(payload.size());
  meta.locator = std::string(origin) + ":" + std::to_string(lsn);
  return meta;
}

}  // namespace paw
