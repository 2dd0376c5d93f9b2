#include "src/provenance/serialize.h"

#include <cstdlib>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace paw {

std::string SerializeExecution(const Execution& exec,
                               const std::vector<bool>& visible,
                               std::string_view placeholder) {
  PAW_CHECK(visible.empty() || visible.size() == exec.items().size())
      << "visibility mask does not match the execution's items";
  const Digraph& g = exec.graph();
  size_t estimate = 32 + exec.spec().name().size() +
                    static_cast<size_t>(exec.num_nodes()) * 48 +
                    static_cast<size_t>(g.num_edges()) * 32;
  for (const DataItem& d : exec.items()) {
    estimate += 48 + d.label.size() + d.value.size();
  }
  std::string out;
  out.reserve(estimate);
  out.append("execution spec=");
  AppendQuotedField(exec.spec().name(), &out);
  out.push_back('\n');
  for (const ExecNode& n : exec.nodes()) {
    out.append("node ");
    AppendInt(n.id.value(), &out);
    out.push_back(' ');
    out.append(ExecNodeKindName(n.kind));
    out.push_back(' ');
    out.append(exec.spec().module(n.module).code);
    out.append(" process=");
    AppendInt(n.process_id, &out);
    out.append(" enclosing=");
    AppendInt(n.enclosing.value(), &out);
    out.push_back('\n');
  }
  for (const DataItem& d : exec.items()) {
    const bool shown =
        visible.empty() || visible[static_cast<size_t>(d.id.value())];
    out.append("item ");
    AppendInt(d.id.value(), &out);
    out.append(" label=");
    AppendQuotedField(d.label, &out);
    out.append(" producer=");
    AppendInt(d.producer.value(), &out);
    out.append(" value=");
    AppendQuotedField(shown ? std::string_view(d.value) : placeholder, &out);
    out.push_back('\n');
  }
  for (NodeIndex u = 0; u < g.num_nodes(); ++u) {
    for (NodeIndex v : g.OutNeighbors(u)) {
      out.append("flow ");
      AppendInt(u, &out);
      out.push_back(' ');
      AppendInt(v, &out);
      out.append(" items=\"");
      const auto& items = exec.ItemsOn(ExecNodeId(u), ExecNodeId(v));
      for (size_t i = 0; i < items.size(); ++i) {
        if (i) out.push_back(';');
        AppendInt(items[i].value(), &out);
      }
      out.append("\"\n");
    }
  }
  return out;
}

Result<Execution> ParseExecution(const std::string& text,
                                 const Specification& spec) {
  Execution exec(spec);
  bool header_seen = false;
  for (const std::string& raw : Split(text, '\n')) {
    std::string line(Trim(raw));
    if (line.empty() || line[0] == '#') continue;
    PAW_ASSIGN_OR_RETURN(std::vector<std::string> f, SplitFields(line));
    if (f.empty()) continue;
    const std::string& tag = f[0];
    if (tag == "execution") {
      std::string name;
      if (f.size() < 2 || !KeyValueField(f[1], "spec", &name)) {
        return Status::InvalidArgument("execution: missing spec=");
      }
      if (name != spec.name()) {
        return Status::InvalidArgument(
            "execution belongs to spec '" + name + "', not '" +
            spec.name() + "'");
      }
      header_seen = true;
    } else if (tag == "node") {
      if (!header_seen) {
        return Status::InvalidArgument("node before execution header");
      }
      if (f.size() < 6) return Status::InvalidArgument("node: bad arity");
      int32_t id = std::atoi(f[1].c_str());
      if (id != exec.num_nodes()) {
        return Status::InvalidArgument("node ids must be dense");
      }
      ExecNodeKind kind;
      if (f[2] == "input") {
        kind = ExecNodeKind::kInput;
      } else if (f[2] == "output") {
        kind = ExecNodeKind::kOutput;
      } else if (f[2] == "atomic") {
        kind = ExecNodeKind::kAtomic;
      } else if (f[2] == "begin") {
        kind = ExecNodeKind::kBegin;
      } else if (f[2] == "end") {
        kind = ExecNodeKind::kEnd;
      } else {
        return Status::InvalidArgument("node: bad kind " + f[2]);
      }
      PAW_ASSIGN_OR_RETURN(ModuleId module, spec.FindModule(f[3]));
      std::string v;
      if (!KeyValueField(f[4], "process", &v)) {
        return Status::InvalidArgument("node: missing process=");
      }
      int process = std::atoi(v.c_str());
      if (!KeyValueField(f[5], "enclosing", &v)) {
        return Status::InvalidArgument("node: missing enclosing=");
      }
      int32_t enclosing = std::atoi(v.c_str());
      if (enclosing >= exec.num_nodes()) {
        return Status::InvalidArgument("node: forward enclosing ref");
      }
      exec.AddNode(kind, module, process,
                   enclosing < 0 ? ExecNodeId() : ExecNodeId(enclosing));
    } else if (tag == "item") {
      if (f.size() < 5) return Status::InvalidArgument("item: bad arity");
      int32_t id = std::atoi(f[1].c_str());
      if (id != exec.num_items()) {
        return Status::InvalidArgument("item ids must be dense");
      }
      std::string label, producer_str, value;
      if (!KeyValueField(f[2], "label", &label) ||
          !KeyValueField(f[3], "producer", &producer_str) ||
          !KeyValueField(f[4], "value", &value)) {
        return Status::InvalidArgument("item: bad fields");
      }
      int32_t producer = std::atoi(producer_str.c_str());
      if (producer < 0 || producer >= exec.num_nodes()) {
        return Status::InvalidArgument("item: producer out of range");
      }
      exec.AddItem(label, ExecNodeId(producer), value);
    } else if (tag == "flow") {
      if (f.size() < 4) return Status::InvalidArgument("flow: bad arity");
      int32_t u = std::atoi(f[1].c_str());
      int32_t v = std::atoi(f[2].c_str());
      std::string items_str;
      if (!KeyValueField(f[3], "items", &items_str)) {
        return Status::InvalidArgument("flow: missing items=");
      }
      std::vector<DataItemId> items;
      if (!items_str.empty()) {
        for (const std::string& part : Split(items_str, ';')) {
          int32_t d = std::atoi(part.c_str());
          if (d < 0 || d >= exec.num_items()) {
            return Status::InvalidArgument("flow: item out of range");
          }
          items.push_back(DataItemId(d));
        }
      }
      PAW_RETURN_NOT_OK(exec.AddFlow(ExecNodeId(u), ExecNodeId(v), items));
    } else {
      return Status::InvalidArgument("unknown directive: " + tag);
    }
  }
  if (!header_seen) {
    return Status::InvalidArgument("missing execution header");
  }
  return exec;
}

}  // namespace paw
