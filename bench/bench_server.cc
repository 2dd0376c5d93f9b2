// E11: pawd network front end — ops/s and p50/p99 request latency as
// a function of concurrent connections, sync (one round trip per op)
// vs pipelined (a window of outstanding ADD_EXECUTIONs per
// connection).
//
// Expected shape: sync throughput is bounded by round trips and — with
// sync=each — by one durable group commit per op per connection;
// pipelining lets every connection keep a window in flight, so the
// server's per-shard writer queues batch many requests into shared
// group commits and throughput scales well past 3x sync at 8
// connections. p99 pipelined latency is higher than sync (queueing),
// which is the classic throughput/latency trade.
//
// Results land in BENCH_server.json ($BENCH_JSON overrides the path)
// as one row per (mode, connections) cell. `--smoke` runs a scaled-
// down table sized for CI.

#include <algorithm>
#include <functional>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/client/paw_client.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/privacy/policy_text.h"
#include "src/provenance/executor.h"
#include "src/provenance/serialize.h"
#include "src/repo/workload.h"
#include "src/workflow/builder.h"
#include "src/server/server.h"
#include "src/store/sharded_repository.h"
#include "src/workflow/serialize.h"

namespace {

using namespace paw;

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("paw_bench_srv_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Same flat-JSON emitter as bench_store.cc (kept local: the two
/// benches are independent binaries with independent artifacts).
class BenchJson {
 public:
  class Row {
   public:
    explicit Row(std::string experiment) {
      json_ = "{\"experiment\":\"" + experiment + "\"";
    }
    Row& Str(const char* key, const std::string& value) {
      json_ += std::string(",\"") + key + "\":\"" + value + "\"";
      return *this;
    }
    Row& Num(const char* key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      json_ += std::string(",\"") + key + "\":" + buf;
      return *this;
    }
    std::string Finish() const { return json_ + "}"; }

   private:
    std::string json_;
  };

  void Add(const Row& row) { rows_.push_back(row.Finish()); }

  void Write(const std::string& path) const {
    std::string out = "{\"bench\":\"server\",\"experiments\":[\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out += "  " + rows_[i] + (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    out += "]}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu experiment rows)\n", path.c_str(),
                rows_.size());
  }

 private:
  std::vector<std::string> rows_;
};

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const size_t index = std::min(
      values->size() - 1,
      static_cast<size_t>(p * static_cast<double>(values->size())));
  return (*values)[index];
}

struct CellResult {
  double secs = 0;
  double ops = 0;
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// One METRICS round trip (HELLO + AUTH + METRICS on a throwaway
/// connection) — exercises the wire surface rather than peeking at the
/// in-process registry.
MetricsSnapshot FetchMetrics(int port) {
  auto client = PawClient::Connect("127.0.0.1", port);
  if (!client.ok() || !client.value().Auth("bench").ok()) {
    std::fprintf(stderr, "metrics connect failed\n");
    std::exit(1);
  }
  auto resp = client.value().Metrics();
  if (!resp.ok()) {
    std::fprintf(stderr, "METRICS: %s\n",
                 resp.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(resp.value().snapshot);
}

uint64_t CounterDelta(const MetricsSnapshot& pre,
                      const MetricsSnapshot& post,
                      std::string_view prefix) {
  return post.SumCounters(prefix) - pre.SumCounters(prefix);
}

uint64_t HistCount(const MetricsSnapshot& snap, std::string_view name) {
  const MetricSample* s = snap.Find(name);
  return s != nullptr ? s->histogram.count : 0;
}

/// Pulls `ops_per_s` of the dedicated gate row at `connections` out of
/// a prior BENCH_server.json (the PAW_NO_METRICS baseline run). The
/// file is our own flat emitter's output, so a string scan is enough.
double BaselineGateOps(const std::string& path, int connections) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    std::exit(1);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  const std::string conn_key =
      "\"connections\":" + std::to_string(connections);
  std::istringstream lines(contents);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"mode\":\"gate\"") == std::string::npos ||
        line.find(conn_key) == std::string::npos) {
      continue;
    }
    const size_t at = line.find("\"ops_per_s\":");
    if (at == std::string::npos) continue;
    return std::strtod(line.c_str() + at + std::strlen("\"ops_per_s\":"),
                       nullptr);
  }
  std::fprintf(stderr, "no gate conns=%d row in baseline %s\n",
               connections, path.c_str());
  std::exit(1);
}

/// Runs `connections` client threads, each issuing `ops_per_conn`
/// ADD_EXECUTIONs against its own tenant spec (connection c uses spec
/// c mod #specs — the multi-tenant shape the server shards for);
/// `window` = 1 is the sync mode (await every ack before the next
/// send), larger windows pipeline.
CellResult RunCell(int port, const std::vector<std::string>& spec_names,
                   const std::vector<std::vector<std::string>>& exec_texts,
                   int connections, int ops_per_conn, int window) {
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(connections));
  std::atomic<int> failures{0};
  Timer timer;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client = PawClient::Connect("127.0.0.1", port);
      if (!client.ok() || !client.value().Auth("bench").ok()) {
        ++failures;
        return;
      }
      const size_t tenant =
          static_cast<size_t>(c) % spec_names.size();
      const std::string& spec_name = spec_names[tenant];
      const std::vector<std::string>& texts = exec_texts[tenant];
      auto& lat = latencies[static_cast<size_t>(c)];
      lat.reserve(static_cast<size_t>(ops_per_conn));
      std::vector<std::pair<PawTicket, double>> in_flight;
      Timer clock;
      for (int i = 0; i < ops_per_conn; ++i) {
        const std::string& text =
            texts[static_cast<size_t>((c + i)) % texts.size()];
        auto ticket =
            client.value().SendAddExecution(spec_name, text);
        if (!ticket.ok()) {
          ++failures;
          return;
        }
        in_flight.emplace_back(ticket.value(), clock.ElapsedMicros());
        if (in_flight.size() >= static_cast<size_t>(window)) {
          auto [front, sent_at] = in_flight.front();
          in_flight.erase(in_flight.begin());
          if (!client.value().AwaitAddExecution(front).ok()) {
            ++failures;
            return;
          }
          lat.push_back(clock.ElapsedMicros() - sent_at);
        }
      }
      for (auto& [ticket, sent_at] : in_flight) {
        if (!client.value().AwaitAddExecution(ticket).ok()) {
          ++failures;
          return;
        }
        lat.push_back(clock.ElapsedMicros() - sent_at);
      }
    });
  }
  for (auto& t : threads) t.join();
  CellResult result;
  result.secs = timer.ElapsedMicros() / 1e6;
  if (failures.load() > 0) {
    std::fprintf(stderr, "bench cell failed (%d client errors)\n",
                 failures.load());
    std::exit(1);
  }
  std::vector<double> all;
  for (auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  result.ops = static_cast<double>(connections) * ops_per_conn;
  result.ops_per_s = result.ops / result.secs;
  result.p50_us = Percentile(&all, 0.50);
  result.p99_us = Percentile(&all, 0.99);
  return result;
}

struct QueryCellResult {
  double secs = 0;
  double ops = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// E12/E14 query side: `connections` client threads, each alternating
/// KEYWORD_SEARCH (hits every tenant spec via the "worker" module
/// token — the cached path) with GET_EXECUTION ordinal 0 (uncached
/// pinned-view lookup). One warmup search per connection pays the
/// engine's one-time view catch-up outside the timed loop. Connection
/// c dials ports[c mod #ports], so a multi-node port list spreads the
/// same client population across a leader and its followers (E14).
QueryCellResult RunQueryCell(const std::vector<int>& ports,
                             const std::vector<std::string>& spec_names,
                             int connections, int queries_per_conn) {
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(connections));
  std::atomic<int> failures{0};
  Timer timer;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const int port = ports[static_cast<size_t>(c) % ports.size()];
      auto client = PawClient::Connect("127.0.0.1", port);
      if (!client.ok() || !client.value().Auth("bench").ok()) {
        ++failures;
        return;
      }
      if (!client.value().Search({"worker"}).ok()) {
        ++failures;
        return;
      }
      auto& lat = latencies[static_cast<size_t>(c)];
      lat.reserve(static_cast<size_t>(queries_per_conn));
      Timer clock;
      for (int i = 0; i < queries_per_conn; ++i) {
        const double start = clock.ElapsedMicros();
        bool ok;
        if (i % 2 == 0) {
          ok = client.value().Search({"worker"}).ok();
        } else {
          const std::string& name =
              spec_names[static_cast<size_t>(c + i) % spec_names.size()];
          ok = client.value().GetExecution(name, 0).ok();
        }
        if (!ok) {
          ++failures;
          return;
        }
        lat.push_back(clock.ElapsedMicros() - start);
      }
    });
  }
  for (auto& t : threads) t.join();
  QueryCellResult result;
  result.secs = timer.ElapsedMicros() / 1e6;
  if (failures.load() > 0) {
    std::fprintf(stderr, "e12 query cell failed (%d client errors)\n",
                 failures.load());
    std::exit(1);
  }
  std::vector<double> all;
  for (auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  result.ops = static_cast<double>(all.size());
  result.qps = result.ops / result.secs;
  result.p50_us = Percentile(&all, 0.50);
  result.p99_us = Percentile(&all, 0.99);
  return result;
}

/// E12 write side: background writer connections keep a pipelined
/// ADD_EXECUTION window in flight until `Stop` is called.
class IngestLoad {
 public:
  IngestLoad(int port, const std::vector<std::string>& spec_names,
             const std::vector<std::vector<std::string>>& exec_texts,
             int connections, int window) {
    for (int c = 0; c < connections; ++c) {
      threads_.emplace_back([&, c, port, window] {
        auto client = PawClient::Connect("127.0.0.1", port);
        if (!client.ok() || !client.value().Auth("bench").ok()) {
          ++failures_;
          return;
        }
        const size_t tenant =
            static_cast<size_t>(c) % spec_names.size();
        const std::string& spec_name = spec_names[tenant];
        const std::vector<std::string>& texts = exec_texts[tenant];
        std::vector<PawTicket> in_flight;
        long acked = 0;
        for (int i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
          const std::string& text =
              texts[static_cast<size_t>(c + i) % texts.size()];
          auto ticket = client.value().SendAddExecution(spec_name, text);
          if (!ticket.ok()) {
            ++failures_;
            return;
          }
          in_flight.push_back(ticket.value());
          if (in_flight.size() >= static_cast<size_t>(window)) {
            if (!client.value()
                     .AwaitAddExecution(in_flight.front())
                     .ok()) {
              ++failures_;
              return;
            }
            in_flight.erase(in_flight.begin());
            ++acked;
          }
        }
        for (PawTicket ticket : in_flight) {
          if (!client.value().AwaitAddExecution(ticket).ok()) {
            ++failures_;
            return;
          }
          ++acked;
        }
        ops_ += acked;
      });
    }
  }

  /// Drains the windows, joins the writers, returns acked appends.
  long Stop() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
    threads_.clear();
    if (failures_.load() > 0) {
      std::fprintf(stderr, "e12 ingest load failed (%d writer errors)\n",
                   failures_.load());
      std::exit(1);
    }
    return ops_.load();
  }

 private:
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<int> failures_{0};
  std::atomic<long> ops_{0};
};

// ---------------------------------------------------------------------
// E13: multi-tenant capacity model. Hundreds of principals with
// distinct levels and cache groups, zipfian spec popularity, and a
// YCSB-style mixed op ratio (40% LINEAGE / 25% STRUCTURAL / 15%
// KEYWORD_SEARCH / 15% GET_EXECUTION / 5% ADD_EXECUTION) driven
// through pawd at bench scale. Each cell sweeps the popularity skew;
// the whole table runs twice, privacy-view cache off then on, so
// BENCH_server.json records the cache win (and hit rates) per cell.
// Tenant specs come from the hierarchical workload generator with
// depth-3 expansion and structural privacy requirements, so every
// uncached lineage/structural answer pays real zoom-out work — the
// per-query cost the memoized view layer is built to remove.

struct E13Cell {
  double qps = 0;
  double lineage_p50_us = 0, lineage_p99_us = 0;
  double structural_p50_us = 0, structural_p99_us = 0;
  double search_p50_us = 0, getexec_p50_us = 0;
  double ops = 0;
  long writes = 0;
};

struct E13Tenants {
  std::vector<std::string> spec_names;
  std::vector<std::vector<std::string>> exec_texts;  // per spec
  std::vector<std::string> keywords;                 // query vocabulary
  std::vector<int> exec_counts;                      // per spec, at ingest end
  int num_principals = 0;
  int hot_ordinals = 8;  // lineage/get target the latest N runs
};

/// Untimed steady-state warmup, run once per server phase: one
/// representative principal per popular (group, level) combination
/// touches every spec's structural view, hot lineage cones, and
/// keyword vocabulary head. Both phases pay the same pass, so the
/// timed cells compare steady states — engine catch-up, the keyword
/// result cache, and (when enabled) the memoized privacy views are
/// warm rather than billed to whichever cell happens to run first.
void WarmE13(int port, const E13Tenants& tenants) {
  for (int who = 0; who < std::min(tenants.num_principals, 8); ++who) {
    auto client = PawClient::Connect("127.0.0.1", port);
    if (!client.ok() ||
        !client.value().Auth("t" + std::to_string(who)).ok()) {
      std::fprintf(stderr, "e13 warmup connect failed\n");
      std::exit(1);
    }
    for (size_t s = 0; s < tenants.spec_names.size(); ++s) {
      const std::string& spec = tenants.spec_names[s];
      wire::StructuralRequest req;
      req.spec_name = spec;
      req.var_terms = {tenants.keywords[0], tenants.keywords[1]};
      req.edges = {{0, 1, true}};
      (void)client.value().Structural(req);
      const int hot =
          std::min(tenants.exec_counts[s], tenants.hot_ordinals);
      for (int o = 0; o < std::min(hot, 4); ++o) {
        (void)client.value().Lineage(spec, o, 0);
        (void)client.value().GetExecution(spec, o);
      }
    }
    for (int k = 0; k < 4; ++k) {
      (void)client.value().Search({tenants.keywords[static_cast<size_t>(k)]});
    }
  }
}

/// One mixed-op client cell: `connections` sessions, each AUTHed as a
/// zipf-popular principal, issuing `ops_per_conn` zipf-routed ops.
E13Cell RunE13Cell(int port, const E13Tenants& tenants, double skew,
                   int connections, int ops_per_conn, uint64_t seed) {
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> lineage_lat(
      static_cast<size_t>(connections)),
      structural_lat(static_cast<size_t>(connections)),
      search_lat(static_cast<size_t>(connections)),
      getexec_lat(static_cast<size_t>(connections));
  std::atomic<int> failures{0};
  std::atomic<long> writes{0};
  std::atomic<long> total_ops{0};
  Timer timer;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)));
      // Session principal: zipf-popular, so at high skew most traffic
      // shares few cache groups — the many-users-one-view case.
      const size_t who = rng.Zipf(
          static_cast<size_t>(tenants.num_principals), skew);
      auto client = PawClient::Connect("127.0.0.1", port);
      if (!client.ok() ||
          !client.value().Auth("t" + std::to_string(who)).ok()) {
        ++failures;
        return;
      }
      const size_t num_specs = tenants.spec_names.size();
      long my_writes = 0, my_ops = 0;
      Timer clock;
      for (int i = 0; i < ops_per_conn; ++i) {
        size_t s = rng.Zipf(num_specs, skew);
        if (tenants.exec_counts[s] == 0) s = 0;
        const std::string& spec = tenants.spec_names[s];
        const double kind = rng.UniformDouble();
        const double start = clock.ElapsedMicros();
        bool ok = false;
        std::vector<double>* bucket = nullptr;
        if (kind < 0.40) {
          // Ordinal popularity is zipf over the spec's hot window
          // (recent-hot shape: provenance queries concentrate on the
          // latest runs).
          const int ordinal = static_cast<int>(rng.Zipf(
              static_cast<size_t>(std::min(tenants.exec_counts[s],
                                           tenants.hot_ordinals)),
              skew));
          ok = client.value().Lineage(spec, ordinal, 0).ok();
          bucket = &lineage_lat[static_cast<size_t>(c)];
        } else if (kind < 0.65) {
          wire::StructuralRequest req;
          req.spec_name = spec;
          req.var_terms = {
              tenants.keywords[rng.Zipf(tenants.keywords.size(), skew)],
              tenants.keywords[rng.Zipf(tenants.keywords.size(), skew)]};
          req.edges = {{0, 1, true}};
          ok = client.value().Structural(req).ok();
          bucket = &structural_lat[static_cast<size_t>(c)];
        } else if (kind < 0.80) {
          ok = client.value()
                   .Search({tenants.keywords[rng.Zipf(
                       tenants.keywords.size(), skew)]})
                   .ok();
          bucket = &search_lat[static_cast<size_t>(c)];
        } else if (kind < 0.95) {
          const int ordinal = static_cast<int>(rng.Zipf(
              static_cast<size_t>(std::min(tenants.exec_counts[s],
                                           tenants.hot_ordinals)),
              skew));
          ok = client.value().GetExecution(spec, ordinal).ok();
          bucket = &getexec_lat[static_cast<size_t>(c)];
        } else {
          const auto& pool = tenants.exec_texts[s];
          auto ticket = client.value().SendAddExecution(
              spec, pool[rng.Uniform(pool.size())]);
          ok = ticket.ok() &&
               client.value().AwaitAddExecution(ticket.value()).ok();
          if (ok) ++my_writes;
        }
        if (!ok) {
          ++failures;
          return;
        }
        ++my_ops;
        if (bucket != nullptr) {
          bucket->push_back(clock.ElapsedMicros() - start);
        }
      }
      writes += my_writes;
      total_ops += my_ops;
    });
  }
  for (auto& t : threads) t.join();
  E13Cell cell;
  cell.ops = static_cast<double>(total_ops.load());
  cell.qps = cell.ops / (timer.ElapsedMicros() / 1e6);
  cell.writes = writes.load();
  if (failures.load() > 0) {
    std::fprintf(stderr, "e13 cell failed (%d client errors)\n",
                 failures.load());
    std::exit(1);
  }
  auto merge = [connections](std::vector<std::vector<double>>& per_conn) {
    std::vector<double> all;
    for (int c = 0; c < connections; ++c) {
      all.insert(all.end(), per_conn[static_cast<size_t>(c)].begin(),
                 per_conn[static_cast<size_t>(c)].end());
    }
    return all;
  };
  std::vector<double> lin = merge(lineage_lat);
  std::vector<double> str = merge(structural_lat);
  std::vector<double> srch = merge(search_lat);
  std::vector<double> gete = merge(getexec_lat);
  cell.lineage_p50_us = Percentile(&lin, 0.50);
  cell.lineage_p99_us = Percentile(&lin, 0.99);
  cell.structural_p50_us = Percentile(&str, 0.50);
  cell.structural_p99_us = Percentile(&str, 0.99);
  cell.search_p50_us = Percentile(&srch, 0.50);
  cell.getexec_p50_us = Percentile(&gete, 0.50);
  return cell;
}

int RunE13(bool smoke, bool no_view_cache, BenchJson* json) {
  const int num_specs = smoke ? 6 : 24;
  const int num_groups = smoke ? 4 : 12;
  const int num_principals = smoke ? 24 : 240;
  const int records = smoke ? 600 : 100000;
  const int query_conns = smoke ? 4 : 16;
  const int ops_per_conn = smoke ? 120 : 600;
  const int pipeline_window = 64;
  const double ingest_skew = 1.0;
  const std::vector<double> skews = {0.0, 1.1};

  std::printf("=== E13: multi-tenant capacity model (%d principals, "
              "%d specs, %d records) ===\n",
              num_principals, num_specs, records);

  // ---- Tenants: hierarchical specs with privacy policies ----
  // Deep specs (depth 4, ~half the modules composite) make the
  // uncached path honest: AccessPrefix + ExpandPrefix and
  // ZoomOutExecution walk a multi-level hierarchy, so a fresh
  // structural/lineage answer costs real view computation — the work
  // the memo layer exists to amortize across principals.
  Rng rng(20260808);
  WorkloadParams params;
  params.depth = 4;
  params.modules_per_workflow = 6;
  params.composite_prob = 0.55;
  params.vocabulary = 40;
  params.max_level = 3;
  std::vector<Specification> specs;
  std::vector<std::string> policy_texts;
  E13Tenants tenants;
  tenants.num_principals = num_principals;
  tenants.hot_ordinals = smoke ? 8 : 32;
  for (int k = 0; k < params.vocabulary; ++k) {
    tenants.keywords.push_back("kw" + std::to_string(k));
  }
  for (int s = 0; s < num_specs; ++s) {
    auto spec = GenerateSpec(params, &rng,
                             "capacity tenant " + std::to_string(s));
    if (!spec.ok()) {
      std::fprintf(stderr, "e13 spec: %s\n",
                   spec.status().ToString().c_str());
      return 1;
    }
    // Distinct per-tenant policy: everything defaults to level-1 data
    // (level-0 principals see masked values), plus structural
    // requirements between modules of one non-root workflow — pairs a
    // composite collapse can always hide, so zoom-out succeeds and
    // does real work for principals below level 2.
    PolicySet policy;
    policy.data.default_level = 1 + s % 2;
    std::map<int32_t, std::vector<const Module*>> by_workflow;
    for (const Module& m : spec.value().modules()) {
      if (m.kind == ModuleKind::kAtomic &&
          m.workflow != spec.value().root()) {
        by_workflow[m.workflow.value()].push_back(&m);
      }
    }
    for (const auto& [wf, mods] : by_workflow) {
      if (mods.size() < 2) continue;
      StructuralPrivacyRequirement req;
      req.src_code = mods.front()->code;
      req.dst_code = mods.back()->code;
      req.required_level = 2;
      policy.structural_reqs.push_back(req);
      if (policy.structural_reqs.size() >= 2) break;
    }
    policy_texts.push_back(SerializePolicy(policy));
    tenants.spec_names.push_back(spec.value().name());
    specs.push_back(std::move(spec).value());
  }

  // ---- Principals: level and group vary independently ----
  // Popularity (zipf over the index) decreases with i; levels are
  // assigned so the *popular* principals are the high-level power
  // users whose expanded views are large — the views worth memoizing.
  // Groups cycle independently of level.
  std::vector<ServerPrincipal> principals = {{"bench", 100, ""}};
  for (int i = 0; i < num_principals; ++i) {
    principals.push_back({"t" + std::to_string(i),
                          3 - (i / num_groups) % 4,
                          "g" + std::to_string(i % num_groups)});
  }

  const std::string dir = FreshDir("e13");
  {
    auto init = ShardedRepository::Init(dir, 8);
    if (!init.ok()) {
      std::fprintf(stderr, "e13 init: %s\n",
                   init.status().ToString().c_str());
      return 1;
    }
  }
  auto start_server = [&](bool cache_on)
      -> std::unique_ptr<PawServer> {
    ServerOptions options;
    options.store.sync_each_append = true;
    options.store.writer_threads = 8;
    options.worker_threads = 12;
    options.principals = principals;
    options.enable_view_cache = cache_on;
    options.slow_query_ms = -1;  // cold deep-spec queries are expected
    auto server = PawServer::Start(dir, std::move(options));
    if (!server.ok()) {
      std::fprintf(stderr, "e13 start: %s\n",
                   server.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(server.value());
  };

  // Phase 1 server runs with the cache off; it also absorbs the bulk
  // ingest so both phases query the same store.
  std::unique_ptr<PawServer> server = start_server(false);
  {
    auto client = PawClient::Connect("127.0.0.1", server->port());
    if (!client.ok() || !client.value().Auth("bench").ok()) return 1;
    for (int s = 0; s < num_specs; ++s) {
      auto added =
          client.value().AddSpec(Serialize(specs[static_cast<size_t>(s)]),
                                 policy_texts[static_cast<size_t>(s)]);
      if (!added.ok()) {
        std::fprintf(stderr, "e13 add spec: %s\n",
                     added.status().ToString().c_str());
        return 1;
      }
      std::vector<std::string> pool;
      for (int i = 0; i < 8; ++i) {
        auto exec =
            GenerateExecution(specs[static_cast<size_t>(s)], &rng);
        if (!exec.ok()) {
          std::fprintf(stderr, "e13 exec: %s\n",
                       exec.status().ToString().c_str());
          return 1;
        }
        pool.push_back(SerializeExecution(exec.value()));
      }
      tenants.exec_texts.push_back(std::move(pool));
    }
    // Zipf-popular bulk ingest, pipelined through one connection.
    tenants.exec_counts.assign(static_cast<size_t>(num_specs), 0);
    std::vector<PawTicket> in_flight;
    Timer ingest_timer;
    for (int r = 0; r < records; ++r) {
      const size_t s =
          rng.Zipf(static_cast<size_t>(num_specs), ingest_skew);
      const auto& pool = tenants.exec_texts[s];
      auto ticket = client.value().SendAddExecution(
          tenants.spec_names[s], pool[rng.Uniform(pool.size())]);
      if (!ticket.ok()) {
        std::fprintf(stderr, "e13 ingest send failed\n");
        return 1;
      }
      ++tenants.exec_counts[s];
      in_flight.push_back(ticket.value());
      if (in_flight.size() >= static_cast<size_t>(pipeline_window)) {
        if (!client.value().AwaitAddExecution(in_flight.front()).ok()) {
          std::fprintf(stderr, "e13 ingest ack failed\n");
          return 1;
        }
        in_flight.erase(in_flight.begin());
      }
    }
    for (PawTicket t : in_flight) {
      if (!client.value().AwaitAddExecution(t).ok()) return 1;
    }
    std::printf("e13 ingest: %d records in %.1fs\n", records,
                ingest_timer.ElapsedMicros() / 1e6);
  }

  // ---- The capacity table: skew sweep x cache off/on ----
  std::map<std::pair<int, double>, E13Cell> results;  // (cache_on, skew)
  for (const bool cache_on : no_view_cache
                                 ? std::vector<bool>{false}
                                 : std::vector<bool>{false, true}) {
    if (cache_on) {
      // Same store, fresh server with memoization enabled. Engines are
      // rebuilt (new cache namespaces), so the phase starts cold.
      server->Stop();
      server.reset();
      server = start_server(true);
    }
    WarmE13(server->port(), tenants);
    for (const double skew : skews) {
      MetricsSnapshot pre = FetchMetrics(server->port());
      E13Cell cell =
          RunE13Cell(server->port(), tenants, skew, query_conns,
                     ops_per_conn, /*seed=*/4242 + (cache_on ? 1 : 0));
      MetricsSnapshot post = FetchMetrics(server->port());
      const uint64_t view_hits = CounterDelta(
          pre, post, "paw_privacy_view_cache_hits_total");
      const uint64_t view_misses = CounterDelta(
          pre, post, "paw_privacy_view_cache_misses_total");
      const double hit_rate =
          view_hits + view_misses > 0
              ? static_cast<double>(view_hits) /
                    static_cast<double>(view_hits + view_misses)
              : 0.0;
      results[{cache_on ? 1 : 0, skew}] = cell;
      std::printf(
          "e13 cache=%-3s skew=%.2f  %7.0f q/s  lineage p50 %7.0f us  "
          "structural p50 %7.0f us  view-cache hit rate %.2f "
          "(%llu/%llu)\n",
          cache_on ? "on" : "off", skew, cell.qps, cell.lineage_p50_us,
          cell.structural_p50_us, hit_rate,
          static_cast<unsigned long long>(view_hits),
          static_cast<unsigned long long>(view_hits + view_misses));
      json->Add(
          BenchJson::Row("e13")
              .Str("view_cache", cache_on ? "on" : "off")
              .Num("skew", skew)
              .Num("principals", num_principals)
              .Num("specs", num_specs)
              .Num("records", records)
              .Num("connections", query_conns)
              .Num("ops", cell.ops)
              .Num("writes", static_cast<double>(cell.writes))
              .Num("qps", cell.qps)
              .Num("lineage_p50_us", cell.lineage_p50_us)
              .Num("lineage_p99_us", cell.lineage_p99_us)
              .Num("structural_p50_us", cell.structural_p50_us)
              .Num("structural_p99_us", cell.structural_p99_us)
              .Num("search_p50_us", cell.search_p50_us)
              .Num("getexec_p50_us", cell.getexec_p50_us)
              .Num("d_view_cache_hits", static_cast<double>(view_hits))
              .Num("d_view_cache_misses",
                   static_cast<double>(view_misses))
              .Num("view_cache_hit_rate", hit_rate));
    }
  }

  int rc = 0;
  if (!no_view_cache) {
    const E13Cell& off = results[{0, skews.back()}];
    const E13Cell& on = results[{1, skews.back()}];
    const double lineage_speedup =
        on.lineage_p50_us > 0 ? off.lineage_p50_us / on.lineage_p50_us
                              : 0.0;
    const double structural_speedup =
        on.structural_p50_us > 0
            ? off.structural_p50_us / on.structural_p50_us
            : 0.0;
    std::printf(
        "e13 view-cache p50 speedup at skew %.2f: lineage %.2fx, "
        "structural %.2fx %s\n",
        skews.back(), lineage_speedup, structural_speedup,
        lineage_speedup >= 3.0 && structural_speedup >= 3.0
            ? "(>= 3x: yes)"
            : "(< 3x)");
  }

  server->Stop();
  server.reset();
  fs::remove_all(dir);
  return rc;
}

}  // namespace

// ---------------------------------------------------------------------
// E14: follower read capacity. One leader ingests a corpus while N
// WAL-shipping followers subscribe and replay; once they converge, the
// same query population runs twice — all connections on the leader,
// then fanned across leader + followers. On a multi-core host the fan
// phase should scale aggregate q/s with node count (each pawd owns its
// engines and pinned views); on a 1-core CI box every node shares the
// core, so the scaling row is advisory there. The leader's
// paw_repl_lag_seconds histogram (observed at ack time: now minus the
// batch's send timestamp) is the replication-freshness artifact.

int RunE14(bool smoke, BenchJson* json) {
  const int kShards = 4;
  const int num_followers = smoke ? 1 : 2;
  const int kTenants = 4;
  const int records = smoke ? 300 : 2000;
  const int query_conns = smoke ? 2 : 4;
  const int queries_per_conn = smoke ? 100 : 300;
  const int pipeline_window = 64;

  std::printf("=== E14: follower read capacity (1 leader + %d "
              "follower%s, %d records) ===\n",
              num_followers, num_followers == 1 ? "" : "s", records);

  const std::string leader_dir = FreshDir("e14_leader");
  {
    auto init = ShardedRepository::Init(leader_dir, kShards);
    if (!init.ok()) {
      std::fprintf(stderr, "e14 init: %s\n",
                   init.status().ToString().c_str());
      return 1;
    }
  }
  auto leader_options = [] {
    ServerOptions options;
    options.store.sync_each_append = true;
    options.store.writer_threads = 4;
    options.worker_threads = 8;
    options.principals = {{"bench", 100, ""}};
    return options;
  };
  auto leader = PawServer::Start(leader_dir, leader_options());
  if (!leader.ok()) {
    std::fprintf(stderr, "e14 leader start: %s\n",
                 leader.status().ToString().c_str());
    return 1;
  }
  const int leader_port = leader.value()->port();

  // Tenant specs + pipelined ingest, same compact shape as E11.
  std::vector<std::string> spec_names;
  std::vector<std::vector<std::string>> exec_texts;
  {
    auto client = PawClient::Connect("127.0.0.1", leader_port);
    if (!client.ok() || !client.value().Auth("bench").ok()) return 1;
    FunctionRegistry fns;
    for (int t = 0; t < kTenants; ++t) {
      const std::string name = "repl tenant " + std::to_string(t);
      SpecBuilder builder(name);
      WorkflowId w = builder.AddWorkflow("W1", "top", 0);
      if (!builder.SetRoot(w).ok()) return 1;
      ModuleId in = builder.AddInput(w);
      ModuleId work = builder.AddModule(w, "M1", "ingest worker");
      ModuleId out = builder.AddOutput(w);
      if (!builder.Connect(in, work, {"x"}).ok()) return 1;
      if (!builder.Connect(work, out, {"y"}).ok()) return 1;
      auto spec = std::move(builder).Build();
      if (!spec.ok()) return 1;
      auto added = client.value().AddSpec(Serialize(spec.value()), "");
      if (!added.ok()) {
        std::fprintf(stderr, "e14 add spec: %s\n",
                     added.status().ToString().c_str());
        return 1;
      }
      std::vector<std::string> pool;
      for (int i = 0; i < 8; ++i) {
        auto exec = Execute(spec.value(), fns,
                            {{"x", "value-" + std::to_string(i)}});
        if (!exec.ok()) return 1;
        pool.push_back(SerializeExecution(exec.value()));
      }
      spec_names.push_back(name);
      exec_texts.push_back(std::move(pool));
    }
    std::vector<PawTicket> in_flight;
    for (int r = 0; r < records; ++r) {
      const size_t t = static_cast<size_t>(r) % spec_names.size();
      auto ticket = client.value().SendAddExecution(
          spec_names[t],
          exec_texts[t][static_cast<size_t>(r) % exec_texts[t].size()]);
      if (!ticket.ok()) return 1;
      in_flight.push_back(ticket.value());
      if (in_flight.size() >= static_cast<size_t>(pipeline_window)) {
        if (!client.value().AwaitAddExecution(in_flight.front()).ok()) {
          return 1;
        }
        in_flight.erase(in_flight.begin());
      }
    }
    for (PawTicket t : in_flight) {
      if (!client.value().AwaitAddExecution(t).ok()) return 1;
    }
  }

  // Followers: fresh stores, SUBSCRIBE to the leader, replay the WAL
  // stream through the recovery path. Catch-up is detected over the
  // wire: each follower's STATUS execution count must reach the
  // leader's corpus.
  std::vector<std::unique_ptr<PawServer>> followers;
  std::vector<std::string> follower_dirs;
  std::vector<int> all_ports = {leader_port};
  for (int i = 0; i < num_followers; ++i) {
    const std::string fdir = FreshDir("e14_follower" + std::to_string(i));
    {
      // Scoped: the Init handle holds the store-dir lock.
      auto init = ShardedRepository::Init(fdir, kShards);
      if (!init.ok()) return 1;
    }
    ServerOptions options = leader_options();
    options.follow_host = "127.0.0.1";
    options.follow_port = leader_port;
    options.follow_principal = "bench";
    auto follower = PawServer::Start(fdir, std::move(options));
    if (!follower.ok()) {
      std::fprintf(stderr, "e14 follower start: %s\n",
                   follower.status().ToString().c_str());
      return 1;
    }
    all_ports.push_back(follower.value()->port());
    follower_dirs.push_back(fdir);
    followers.push_back(std::move(follower).value());
  }
  Timer catch_up;
  for (const auto& follower : followers) {
    auto client = PawClient::Connect("127.0.0.1", follower->port());
    if (!client.ok() || !client.value().Auth("bench").ok()) return 1;
    for (;;) {
      auto status = client.value().GetStatus();
      if (status.ok() && status.value().executions >= records) break;
      if (catch_up.ElapsedMicros() > 120e6) {
        std::fprintf(stderr, "e14 follower never caught up\n");
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  std::printf("e14 catch-up: %d followers replayed %d records in %.2fs\n",
              num_followers, records, catch_up.ElapsedMicros() / 1e6);

  // Same query population, leader-only vs fanned across all nodes.
  QueryCellResult leader_only = RunQueryCell(
      {leader_port}, spec_names, query_conns, queries_per_conn);
  QueryCellResult fanned = RunQueryCell(all_ports, spec_names,
                                        query_conns, queries_per_conn);
  std::printf(
      "e14 leader-only  nodes=1  %8.0f q/s  p50 %7.0f us  p99 %7.0f us\n",
      leader_only.qps, leader_only.p50_us, leader_only.p99_us);
  std::printf(
      "e14 fanned       nodes=%zu  %8.0f q/s  p50 %7.0f us  p99 %7.0f us\n",
      all_ports.size(), fanned.qps, fanned.p50_us, fanned.p99_us);
  const double scaling =
      leader_only.qps > 0 ? fanned.qps / leader_only.qps : 0.0;
  // Same gating posture as E12: on 1 core all nodes time-share, and a
  // --smoke cell (a few hundred queries on one shared host) is too short
  // to separate scaling from noise — measured 1.00x-1.16x on a 4-core
  // host — so the row is advisory in both cases. A full multi-core run
  // gates it: the followers genuinely add engine capacity and fanning
  // the same population must not lose throughput (>= 1.2x aggregate is
  // a conservative floor for 2+ nodes — real scaling approaches node
  // count).
  const unsigned cores = std::thread::hardware_concurrency();
  int rc = 0;
  if (cores <= 1 || smoke) {
    std::printf(
        "e14 follower scaling: %.2fx aggregate q/s across %zu nodes, "
        "%d queries per phase (advisory: %s)\n",
        scaling, all_ports.size(), query_conns * queries_per_conn,
        cores <= 1 ? "1-core host, all nodes share the core"
                   : "--smoke cells are too short to gate");
  } else {
    const bool scaled = scaling >= 1.2;
    std::printf(
        "e14 follower scaling: %.2fx aggregate q/s across %zu nodes %s\n",
        scaling, all_ports.size(),
        scaled ? "(>= 1.2x: yes)" : "(< 1.2x: FAIL on multi-core host)");
    if (!scaled) rc = 1;
  }

  // Replication freshness from the leader's own metrics surface.
  MetricsSnapshot snap = FetchMetrics(leader_port);
  const MetricSample* lag = snap.Find("paw_repl_lag_seconds");
  const double lag_p50 =
      lag != nullptr ? lag->histogram.Quantile(0.50) : 0.0;
  const double lag_p99 =
      lag != nullptr ? lag->histogram.Quantile(0.99) : 0.0;
  std::printf(
      "e14 paw_repl_lag_seconds: count=%llu p50=%.6fs p99=%.6fs  "
      "(batches sent %llu, records sent %llu, acks %llu)\n",
      static_cast<unsigned long long>(
          lag != nullptr ? lag->histogram.count : 0),
      lag_p50, lag_p99,
      static_cast<unsigned long long>(
          snap.SumCounters("paw_repl_batches_sent_total")),
      static_cast<unsigned long long>(
          snap.SumCounters("paw_repl_records_sent_total")),
      static_cast<unsigned long long>(
          snap.SumCounters("paw_repl_acks_total")));

  json->Add(BenchJson::Row("e14")
                .Str("phase", "leader_only")
                .Num("nodes", 1)
                .Num("qps", leader_only.qps)
                .Num("p50_us", leader_only.p50_us)
                .Num("p99_us", leader_only.p99_us));
  json->Add(BenchJson::Row("e14")
                .Str("phase", "fanned")
                .Num("nodes", static_cast<double>(all_ports.size()))
                .Num("qps", fanned.qps)
                .Num("p50_us", fanned.p50_us)
                .Num("p99_us", fanned.p99_us)
                .Num("scaling_x", scaling)
                .Num("repl_lag_p99_s", lag_p99)
                .Num("repl_lag_count",
                     static_cast<double>(
                         lag != nullptr ? lag->histogram.count : 0)));

  for (auto& follower : followers) follower->Stop();
  leader.value()->Stop();
  for (const std::string& fdir : follower_dirs) fs::remove_all(fdir);
  fs::remove_all(leader_dir);
  return rc;
}

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate_only = false;
  bool no_view_cache = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--gate-only") == 0) gate_only = true;
    if (std::strcmp(argv[i], "--no-view-cache") == 0) no_view_cache = true;
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    }
  }

  const std::string dir = FreshDir("e11");
  {
    auto init = ShardedRepository::Init(dir, 8);
    if (!init.ok()) {
      std::fprintf(stderr, "init: %s\n",
                   init.status().ToString().c_str());
      return 1;
    }
  }
  ServerOptions options;
  options.store.sync_each_append = true;  // acked == durable
  options.store.writer_threads = 8;
  options.worker_threads = 12;
  options.principals = {{"bench", 100, ""}};
  auto server = PawServer::Start(dir, std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "start: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  const int port = server.value()->port();

  // Upload one tenant spec per prospective connection (names route
  // them across shards) and pre-serialize execution pools, so client
  // threads measure the wire + store, not the executor. The tenant
  // spec is deliberately compact (one worker module): E11 measures
  // request throughput, not payload size — bench_store's E10 tables
  // already sweep record sizes.
  constexpr int kTenants = 8;
  std::vector<std::string> spec_names;
  std::vector<std::vector<std::string>> exec_texts;
  {
    auto client = PawClient::Connect("127.0.0.1", port);
    if (!client.ok() || !client.value().Auth("bench").ok()) return 1;
    FunctionRegistry fns;
    for (int t = 0; t < kTenants; ++t) {
      const std::string name = "bench tenant " + std::to_string(t);
      SpecBuilder builder(name);
      WorkflowId w = builder.AddWorkflow("W1", "top", 0);
      if (!builder.SetRoot(w).ok()) return 1;
      ModuleId in = builder.AddInput(w);
      ModuleId work = builder.AddModule(w, "M1", "ingest worker");
      ModuleId out = builder.AddOutput(w);
      if (!builder.Connect(in, work, {"x"}).ok()) return 1;
      if (!builder.Connect(work, out, {"y"}).ok()) return 1;
      auto spec = std::move(builder).Build();
      if (!spec.ok()) {
        std::fprintf(stderr, "tenant spec: %s\n",
                     spec.status().ToString().c_str());
        return 1;
      }
      auto added = client.value().AddSpec(Serialize(spec.value()), "");
      if (!added.ok()) {
        std::fprintf(stderr, "add spec: %s\n",
                     added.status().ToString().c_str());
        return 1;
      }
      std::vector<std::string> pool;
      for (int i = 0; i < 16; ++i) {
        auto exec = Execute(spec.value(), fns,
                            {{"x", "value-" + std::to_string(i)}});
        if (!exec.ok()) return 1;
        pool.push_back(SerializeExecution(exec.value()));
      }
      spec_names.push_back(name);
      exec_texts.push_back(std::move(pool));
    }
  }

  const int ops_per_conn = smoke ? 250 : 500;
  const int pipeline_window = 64;
  const std::vector<int> conn_table =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 4, 8, 16};

  BenchJson json;
  double sync8 = 0, pipe8 = 0;
  // --gate-only skips the sync/pipelined table (and its 3x check) and
  // runs just the dedicated gate cell below. The overhead comparison
  // needs the baseline and instrumented binaries measured seconds
  // apart — machine throughput drifts several percent over the minutes
  // a full run takes, which swamps a 5% gate — so check.sh alternates
  // short --gate-only runs of the two builds instead of comparing two
  // full benchmarks.
  for (int connections : gate_only ? std::vector<int>{} : conn_table) {
    for (const bool pipelined : {false, true}) {
      // Pre/post METRICS snapshots bracket the whole best-of-two pair,
      // so the deltas below cover both runs (2x the reported ops).
      MetricsSnapshot pre = FetchMetrics(port);
      // Best of two: on small CI machines a cold first cell (page
      // cache, journal state, scheduler) can understate either mode.
      CellResult cell =
          RunCell(port, spec_names, exec_texts, connections, ops_per_conn,
                  pipelined ? pipeline_window : 1);
      CellResult again =
          RunCell(port, spec_names, exec_texts, connections, ops_per_conn,
                  pipelined ? pipeline_window : 1);
      if (again.ops_per_s > cell.ops_per_s) cell = again;
      MetricsSnapshot post = FetchMetrics(port);
      const char* mode = pipelined ? "pipelined" : "sync";
      std::printf(
          "e11 %-9s conns=%-2d  %8.0f ops/s  p50 %7.0f us  p99 %7.0f "
          "us  (%.2fs)\n",
          mode, connections, cell.ops_per_s, cell.p50_us, cell.p99_us,
          cell.secs);
      const MetricSample* fsync = post.Find("paw_wal_fsync_seconds");
      json.Add(
          BenchJson::Row("e11")
              .Str("mode", mode)
              .Num("connections", connections)
              .Num("ops", cell.ops)
              .Num("secs", cell.secs)
              .Num("ops_per_s", cell.ops_per_s)
              .Num("p50_us", cell.p50_us)
              .Num("p99_us", cell.p99_us)
              .Num("d_requests",
                   static_cast<double>(CounterDelta(
                       pre, post, "paw_server_requests_total")))
              .Num("d_wal_appends",
                   static_cast<double>(CounterDelta(
                       pre, post, "paw_wal_appends_total")))
              .Num("d_fsyncs",
                   static_cast<double>(
                       HistCount(post, "paw_wal_fsync_seconds") -
                       HistCount(pre, "paw_wal_fsync_seconds")))
              .Num("d_bytes_in",
                   static_cast<double>(CounterDelta(
                       pre, post, "paw_server_bytes_in_total")))
              .Num("d_bytes_out",
                   static_cast<double>(CounterDelta(
                       pre, post, "paw_server_bytes_out_total")))
              .Num("fsync_p99_s",
                   fsync != nullptr ? fsync->histogram.Quantile(0.99)
                                    : 0.0));
      if (connections == 8) {
        (pipelined ? pipe8 : sync8) = cell.ops_per_s;
      }
    }
  }
  if (sync8 > 0) {
    const double speedup = pipe8 / sync8;
    std::printf("e11 pipelined vs sync at 8 connections: %.2fx %s\n",
                speedup, speedup >= 3.0 ? "(>= 3x: yes)" : "(< 3x)");
  }

  // Dedicated gate cell for the instrumentation-overhead comparison.
  // The table cells above are sized for a quick smoke signal — far too
  // short (tens of ms) to compare two builds within 5% on a noisy CI
  // box. This cell runs 8x the ops per trial over a fixed 8 trials and
  // takes the median of the top half: the max alone still swings
  // several percent trial-to-trial on shared machines, while the
  // top-half median is a stable estimate of the build's throughput
  // ceiling. The PAW_NO_METRICS baseline run records the identical
  // cell, so both sides of the gate use the same estimator.
  const int gate_conns = conn_table.back();
  double gate_ops = 0;
  {
    constexpr int kGateTrials = 8;
    std::vector<double> samples;
    samples.reserve(kGateTrials);
    for (int t = 0; t < kGateTrials; ++t) {
      CellResult cell =
          RunCell(port, spec_names, exec_texts, gate_conns,
                  ops_per_conn * 8, pipeline_window);
      samples.push_back(cell.ops_per_s);
    }
    std::sort(samples.begin(), samples.end(), std::greater<>());
    gate_ops = (samples[1] + samples[2]) / 2;  // median of top 4
    std::printf(
        "e11 gate      conns=%-2d  %8.0f ops/s  (top-half median of %d "
        "trials, best %.0f)\n",
        gate_conns, gate_ops, kGateTrials, samples[0]);
    json.Add(BenchJson::Row("e11")
                 .Str("mode", "gate")
                 .Num("connections", gate_conns)
                 .Num("ops_per_s", gate_ops));
  }

  // Instrumentation overhead gate: compare the gate cell against the
  // same cell from a PAW_NO_METRICS build's BENCH_server.json. The
  // workload is fsync-bound, so genuine metric overhead is far below
  // the 5% budget — failures here mean a hot-path regression.
  int gate_rc = 0;
  if (!baseline_path.empty()) {
    const double baseline = BaselineGateOps(baseline_path, gate_conns);
    const double instrumented = gate_ops;
    if (baseline <= 0 || instrumented <= 0) {
      std::fprintf(stderr, "overhead gate: missing cell data\n");
      return 1;
    }
    const double overhead = 1.0 - instrumented / baseline;
    const bool pass = instrumented >= 0.95 * baseline;
    std::printf(
        "e11 instrumentation overhead vs baseline at %d conns: %.1f%% "
        "%s\n",
        gate_conns, overhead * 100.0,
        pass ? "(<= 5%: yes)" : "(> 5%)");
    if (!pass) gate_rc = 1;
  }

  // E12: mixed read/write — query latency on an idle store vs under
  // sustained pipelined ingest. With the MVCC read path, queries hold
  // only the *shared* store lease and serve from pinned engine views,
  // so ingest must not multiply query p99 by more than the CPU
  // contention it genuinely adds. The METRICS brackets double as the
  // acceptance check that no query phase ever took the exclusive
  // lease (only ADD_SPEC and COMPACT do, and neither runs here).
  if (!gate_only) {
    const int query_conns = smoke ? 2 : 4;
    const int queries_per_conn = smoke ? 150 : 400;
    const int writer_conns = smoke ? 2 : 4;

    MetricsSnapshot pre_idle = FetchMetrics(port);
    QueryCellResult idle =
        RunQueryCell({port}, spec_names, query_conns, queries_per_conn);
    MetricsSnapshot post_idle = FetchMetrics(port);
    std::printf(
        "e12 idle    conns=%-2d  %8.0f q/s  p50 %7.0f us  p99 %7.0f us\n",
        query_conns, idle.qps, idle.p50_us, idle.p99_us);

    IngestLoad load(port, spec_names, exec_texts, writer_conns,
                    pipeline_window);
    QueryCellResult busy =
        RunQueryCell({port}, spec_names, query_conns, queries_per_conn);
    MetricsSnapshot post_busy = FetchMetrics(port);
    const long writes = load.Stop();
    std::printf(
        "e12 ingest  conns=%-2d  %8.0f q/s  p50 %7.0f us  p99 %7.0f us  "
        "(%ld writes acked alongside, %d writers)\n",
        query_conns, busy.qps, busy.p50_us, busy.p99_us, writes,
        writer_conns);

    for (const auto& [phase, cell, pre, post] :
         {std::tuple<const char*, const QueryCellResult&,
                     const MetricsSnapshot&, const MetricsSnapshot&>(
              "idle", idle, pre_idle, post_idle),
          std::tuple<const char*, const QueryCellResult&,
                     const MetricsSnapshot&, const MetricsSnapshot&>(
              "ingest", busy, post_idle, post_busy)}) {
      json.Add(
          BenchJson::Row("e12")
              .Str("phase", phase)
              .Num("query_connections", query_conns)
              .Num("writer_connections",
                   std::strcmp(phase, "ingest") == 0 ? writer_conns : 0)
              .Num("ops", cell.ops)
              .Num("qps", cell.qps)
              .Num("p50_us", cell.p50_us)
              .Num("p99_us", cell.p99_us)
              .Num("d_cache_hits",
                   static_cast<double>(CounterDelta(
                       pre, post, "paw_query_cache_hits_total")))
              .Num("d_cache_misses",
                   static_cast<double>(CounterDelta(
                       pre, post, "paw_query_cache_misses_total")))
              .Num("d_lease_shared",
                   static_cast<double>(CounterDelta(
                       pre, post, "paw_server_lease_shared_total")))
              .Num("d_lease_exclusive",
                   static_cast<double>(CounterDelta(
                       pre, post, "paw_server_lease_exclusive_total"))));
    }

    const double ratio =
        idle.p99_us > 0 ? busy.p99_us / idle.p99_us : 0.0;
    // The "p99 within ~2x of idle" target only means something when
    // queries and writers can actually run in parallel. On a 1-core
    // host they time-share the core, so under-ingest p99 is pure CPU
    // contention and the check would cry wolf — skip it with a reason.
    // A --smoke cell's p99 rests on a few hundred samples, which one
    // scheduler hiccup moves several-fold (4.1x and 7.2x measured on a
    // 4-core host), so it is advisory there too. A full multi-core run
    // gates it: the pinned-view read path keeps the ratio near 1x.
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores <= 1 || smoke) {
      std::printf(
          "e12 query p99 under ingest: %.0f us vs idle %.0f us = %.2fx, "
          "%d queries per phase (2x check advisory: %s)\n",
          busy.p99_us, idle.p99_us, ratio, query_conns * queries_per_conn,
          cores <= 1 ? "1-core host, writers and queries share the core"
                     : "--smoke p99 rests on too few samples");
    } else {
      const bool within = ratio <= 2.0;
      std::printf(
          "e12 query p99 under ingest: %.0f us vs idle %.0f us = %.2fx "
          "%s\n",
          busy.p99_us, idle.p99_us, ratio,
          within ? "(<= 2x: yes)" : "(> 2x: FAIL on multi-core host)");
      if (!within) gate_rc = 1;
    }

    const uint64_t exclusive_delta = CounterDelta(
        pre_idle, post_busy, "paw_server_lease_exclusive_total");
    std::printf(
        "e12 exclusive-lease delta across query phases: %llu %s\n",
        static_cast<unsigned long long>(exclusive_delta),
        exclusive_delta == 0 ? "(queries never took the writer lease: "
                               "yes)"
                             : "(QUERY TOOK EXCLUSIVE LEASE)");
    if (exclusive_delta != 0) gate_rc = 1;
  }

  // E13 runs against its own store + server (the E11 server above
  // stays idle meanwhile). `--no-view-cache` restricts it to the
  // memoization-off phase — the baseline half of the comparison.
  if (!gate_only) {
    if (RunE13(smoke, no_view_cache, &json) != 0) gate_rc = 1;
  }

  // E14 spins up its own leader + followers; the E11 server is idle by
  // now. Setup failures gate; the scaling row is advisory on 1-core and
  // in --smoke.
  if (!gate_only) {
    if (RunE14(smoke, &json) != 0) gate_rc = 1;
  }

  const char* json_path = std::getenv("BENCH_JSON");
  json.Write(json_path != nullptr ? json_path : "BENCH_server.json");

  server.value()->Stop();
  fs::remove_all(dir);
  return gate_rc;
}
