// paw_bench: the wire-level benchmark of pawd.
//
// For each workload it spawns pawd (`pawctl serve`, found next to this
// binary) on fresh stores inside the build directory, drives closed-loop
// load through PawClient from this one process (at most four load
// threads, one connection each), and reads every per-layer number from
// outside the server: METRICS and TRACE_DUMP over the wire,
// /proc/<pid> for CPU and memory, and the store directory's size on
// disk. The server receives only generated inputs; the seed picks the
// specifications, executions, principals and op stream.
//
//   paw_bench [--workload=NAME|all] [--seed=N] [--seconds=S] [--trace]
//
// Prints each metric as `name value unit`, then one JSON object per
// workload. Exits nonzero when a correctness check fails. README.md in
// this directory describes the workloads and every metric.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "src/client/paw_client.h"
#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/common/trace.h"
#include "src/privacy/policy_text.h"
#include "src/provenance/serialize.h"
#include "src/repo/workload.h"
#include "src/server/wire.h"
#include "src/workflow/serialize.h"

#ifndef PAWBENCH_BUILD_TYPE
#define PAWBENCH_BUILD_TYPE "unknown"
#endif

namespace pawbench {
namespace {

namespace fs = std::filesystem;
using paw::PawClient;
using paw::Status;

constexpr const char* kAdmin = "bench";
constexpr int kShards = 8;
constexpr int kReauthEvery = 16;
constexpr int kVerifyRequests = 200;
constexpr size_t kMinP99Samples = 1000;
constexpr size_t kMinTracesPerOp = 300;
constexpr double kStartTimeoutMs = 120000;
// Set-ups per run; each is followed by an equal share of the timed phase.
constexpr int kSegments = 5;

// pawd records a trace when `trace_id % trace-sample == 0`. The client
// picks every trace id itself: odd ids for requests that must stay
// unsampled, multiples of kTracedSampleN for sampled ones. Untraced runs
// start pawd at kUntracedSampleN, which no id this client sends divides.
constexpr uint64_t kTracedSampleN = uint64_t{1} << 20;
constexpr uint64_t kUntracedSampleN = uint64_t{1} << 30;

// ---- Operations ----------------------------------------------------------

enum class Op : uint8_t { kAdd, kLineage, kStructural, kSearch, kGetExec };
constexpr int kNumOps = 5;
constexpr Op kAllOps[kNumOps] = {Op::kAdd, Op::kLineage, Op::kStructural,
                                 Op::kSearch, Op::kGetExec};

paw::wire::Opcode OpcodeOf(Op op) {
  switch (op) {
    case Op::kAdd:
      return paw::wire::Opcode::kAddExecution;
    case Op::kLineage:
      return paw::wire::Opcode::kLineage;
    case Op::kStructural:
      return paw::wire::Opcode::kStructuralQuery;
    case Op::kSearch:
      return paw::wire::Opcode::kKeywordSearch;
    case Op::kGetExec:
      return paw::wire::Opcode::kGetExecution;
  }
  return paw::wire::Opcode::kStatus;
}

std::string OpName(Op op) {
  return std::string(paw::wire::OpcodeName(OpcodeOf(op)));
}

/// The end-to-end latency metrics of each op: `<prefix>_p50_us`, and
/// `<prefix>_p99_us` where `p99` is set. Every workload sends every op.
struct OpMetric {
  Op op;
  const char* prefix;
  bool p99;
};
constexpr OpMetric kOpMetrics[] = {{Op::kAdd, "ingest", true},
                                   {Op::kLineage, "lineage", true},
                                   {Op::kStructural, "structural", true},
                                   {Op::kSearch, "search", false},
                                   {Op::kGetExec, "getexec", false}};

/// Op weights of a closed-loop mixed stream, indexed like kAllOps.
struct Mix {
  double weight[kNumOps] = {};

  Op Sample(paw::Rng* rng) const {
    double total = 0;
    for (double w : weight) total += w;
    double u = rng->UniformDouble() * total;
    for (int i = 0; i < kNumOps; ++i) {
      if (u < weight[i]) return kAllOps[i];
      u -= weight[i];
    }
    return kAllOps[kNumOps - 1];
  }
};

/// Inverse-CDF Zipf sampler with the table built once (the Rng's own
/// Zipf rebuilds it per draw, which would bill the client tens of
/// microseconds per op).
class ZipfTable {
 public:
  ZipfTable(size_t n, double skew) : cdf_(std::max<size_t>(n, 1)) {
    double total = 0;
    for (size_t i = 0; i < cdf_.size(); ++i) {
      total += skew == 0 ? 1.0 : 1.0 / std::pow(double(i + 1), skew);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(paw::Rng* rng) const {
    const double u = rng->UniformDouble();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---- Workloads -------------------------------------------------------------

struct Shape {
  const char* name;
  const char* why;
  int specs;
  paw::WorkloadParams params;
  /// Generated specs are redrawn until their module count, and the data
  /// items of an execution minus the modules, fall in these narrow bands,
  /// so every seed's inputs cost about the same. Without the bands,
  /// execution size alone moved ingest throughput by 15% across seeds.
  int min_modules, max_modules;
  int min_extra_items, max_extra_items;
  int pool;         ///< executions generated per spec
  int corpus_runs;  ///< executions per spec stored during set-up
  int principals = 0;  ///< tenant principals besides the admin
  int groups = 1;
  bool policies = false;  ///< per-tenant data + structural privacy policies
  Mix mix = {};           ///< closed-loop reader mix
  double skew = 0;  ///< zipf skew of principal/spec/run/keyword (0 = uniform)
  int writers = 0, window = 0;  ///< pipelined ADD_EXECUTION connections
  int readers = 0;              ///< closed-loop mixed-op connections
  int warmup_ops;               ///< per connection and phase, after the restart
  bool quorum = false;          ///< leader acks=quorum plus one follower
  /// Share of each segment in which the readers run alone, before the
  /// writers run alone. 0 runs readers and writers together.
  double query_share = 0;
  /// `pawctl serve` option this workload adds to the common ones.
  const char* serve_extra = nullptr;
};

paw::WorkloadParams Params(int depth, int modules, double composite,
                           int vocabulary) {
  paw::WorkloadParams p;
  p.depth = depth;
  p.modules_per_workflow = modules;
  p.composite_prob = composite;
  p.vocabulary = vocabulary;
  p.max_level = 3;
  return p;
}

constexpr Mix kTenantMix{{0.05, 0.40, 0.25, 0.15, 0.15}};
constexpr Mix kQueryMix{{0, 0.40, 0.25, 0.15, 0.15}};

// Why each workload exists is printed with its results and listed in
// BENCHMARK.json; README.md expands on it.
const Shape kShapes[] = {
    {.name = "ingest",
     .why = "pipelined writes run alone: parse, writer queues, group commit, "
            "fsync and codec; admin queries run apart, with no privacy "
            "policy",
     .specs = 8,
     .params = Params(2, 5, 0.35, 50),
     .min_modules = 12, .max_modules = 12,
     .min_extra_items = 1, .max_extra_items = 1,
     .pool = 16,
     .corpus_runs = 1500,
     .mix = kQueryMix,
     .writers = 4, .window = 32,
     .readers = 4,
     .warmup_ops = 250,
     .query_share = 0.25},
    {.name = "tenant_hot",
     .why = "zipf-skewed principals, specs and runs: answers mostly come "
            "from memoized privacy views and the keyword result cache",
     .specs = 24,
     .params = Params(3, 5, 0.55, 40),
     .min_modules = 150, .max_modules = 159,
     .min_extra_items = 3, .max_extra_items = 9,
     .pool = 4,
     .corpus_runs = 32,
     .principals = 240, .groups = 12,
     .policies = true,
     .mix = kTenantMix,
     .skew = 1.1,
     .readers = 4,
     .warmup_ops = 250},
    // 768 executions x 48 group@level pairs give 36,864 distinct zoom-out
    // and as many masking views. With pawd's default 64 MiB view cache a
    // fresh set-up spends about half of a 4 s segment filling the cache
    // (0.33 hits and 0.21 evictions per query overall), so this workload
    // gives pawd a 4 MiB cache: it is full from the warmup on and misses
    // on over 90% of lookups, as in a deployment whose tenants' views
    // outgrow the cache.
    {.name = "tenant_uniform",
     .why = "uniform principals, specs and runs over more views than the "
            "view cache holds: view computation, zoom-out, masking and "
            "eviction",
     .specs = 24,
     .params = Params(3, 5, 0.55, 40),
     .min_modules = 150, .max_modules = 159,
     .min_extra_items = 3, .max_extra_items = 9,
     .pool = 4,
     .corpus_runs = 32,
     .principals = 240, .groups = 12,
     .policies = true,
     .mix = kTenantMix,
     .skew = 0,
     .readers = 4,
     .warmup_ops = 250,
     .serve_extra = "viewcache-mb=4"},
    {.name = "mixed_quorum",
     .why = "quorum-acked writes and reads share one leader: lease, "
            "catch-up, view invalidation and replication ack all sit on "
            "the path",
     // Two levels of workflows, so a KEYWORD_SEARCH enumerates a few
     // dozen covering prefixes. Specs whose prefix lattice is just under
     // the enumeration cap (4,096) took 20-50 ms per search, holding a
     // shared store lease that stalled every quorum write behind it.
     .specs = 12,
     .params = Params(2, 6, 0.6, 40),
     .min_modules = 32, .max_modules = 32,
     .min_extra_items = 4, .max_extra_items = 6,
     .pool = 4,
     .corpus_runs = 50,
     .principals = 48, .groups = 12,
     .policies = true,
     .mix = Mix{{0, 0.25, 0.25, 0.25, 0.25}},
     .skew = 1.1,
     .writers = 2, .window = 16,
     .readers = 2,
     .warmup_ops = 100,
     .quorum = true},
};

// ---- Inputs ----------------------------------------------------------------

struct Tenant {
  std::string name;
  std::string spec_text;
  std::string policy_text;
  std::vector<std::string> execs;  ///< serialized executions to ingest
  int items = 0;                   ///< data items per execution
};

struct Principal {
  std::string name;
  int level = 0;
  std::string group;
};

struct Inputs {
  std::vector<Tenant> tenants;
  std::vector<Principal> principals;  ///< tenant principals (no admin)
  std::vector<std::string> keywords;
  std::string auth;  ///< pawctl serve `auth=` list
};

/// Per-tenant privacy policy: data defaults to level 1 or 2 (so level-0
/// principals see masked values) plus structural requirements between
/// modules of one non-root workflow, which a composite collapse can
/// always hide, so zoom-out does real work below level 2.
paw::PolicySet TenantPolicy(const paw::Specification& spec, int index) {
  paw::PolicySet policy;
  policy.data.default_level = 1 + index % 2;
  std::map<int32_t, std::vector<const paw::Module*>> by_workflow;
  for (const paw::Module& m : spec.modules()) {
    if (m.kind == paw::ModuleKind::kAtomic && m.workflow != spec.root()) {
      by_workflow[m.workflow.value()].push_back(&m);
    }
  }
  for (const auto& [wf, mods] : by_workflow) {
    if (mods.size() < 2) continue;
    paw::StructuralPrivacyRequirement req;
    req.src_code = mods.front()->code;
    req.dst_code = mods.back()->code;
    req.required_level = 2;
    policy.structural_reqs.push_back(req);
    if (policy.structural_reqs.size() >= 2) break;
  }
  return policy;
}

paw::Result<Inputs> MakeInputs(const Shape& shape, uint64_t seed) {
  Inputs in;
  paw::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  for (int s = 0; s < shape.specs; ++s) {
    Tenant t;
    t.name = std::string(shape.name) + " tenant " + std::to_string(s);
    std::optional<paw::Specification> spec;
    for (int attempt = 0; attempt < 100000 && !spec; ++attempt) {
      auto drawn = paw::GenerateSpec(shape.params, &rng, t.name);
      if (!drawn.ok()) return drawn.status();
      const int modules = static_cast<int>(drawn.value().modules().size());
      if (modules < shape.min_modules || modules > shape.max_modules) continue;
      auto probe = paw::GenerateExecution(drawn.value(), &rng);
      if (!probe.ok()) return probe.status();
      const int extra =
          static_cast<int>(probe.value().items().size()) - modules;
      if (extra >= shape.min_extra_items && extra <= shape.max_extra_items) {
        spec.emplace(std::move(drawn).value());
      }
    }
    if (!spec) return Status::Internal("no spec inside the size bands");
    t.spec_text = paw::Serialize(*spec);
    if (shape.policies) {
      t.policy_text = paw::SerializePolicy(TenantPolicy(*spec, s));
    }
    for (int i = 0; i < shape.pool; ++i) {
      auto exec = paw::GenerateExecution(*spec, &rng);
      if (!exec.ok()) return exec.status();
      const int items = static_cast<int>(exec.value().items().size());
      t.items = i == 0 ? items : std::min(t.items, items);
      t.execs.push_back(paw::SerializeExecution(exec.value()));
    }
    in.tenants.push_back(std::move(t));
  }
  in.auth = std::string(kAdmin) + ":100";
  for (int i = 0; i < shape.principals; ++i) {
    // Levels 3, 2, 1, 0 cycle every `groups` principals, so the
    // zipf-popular low indices are the high-level users with the
    // largest views; groups cycle independently of level.
    Principal p{"t" + std::to_string(i), 3 - (i / shape.groups) % 4,
                "g" + std::to_string(i % shape.groups)};
    in.auth += "," + p.name + ":" + std::to_string(p.level) + ":" + p.group;
    in.principals.push_back(std::move(p));
  }
  for (int k = 0; k < shape.params.vocabulary; ++k) {
    in.keywords.push_back("kw" + std::to_string(k));
  }
  return in;
}

// ---- pawd child processes --------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string Tail(const std::string& text, size_t n = 2000) {
  return text.size() <= n ? text : text.substr(text.size() - n);
}

/// CPU time and peak memory of a process, from /proc/<pid>.
struct ProcSample {
  double cpu_s = 0;   ///< utime + stime
  double hwm_mb = 0;  ///< VmHWM
};

ProcSample ReadProc(pid_t pid) {
  ProcSample out;
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string stat = ReadFile(base + "/stat");
  const size_t paren = stat.rfind(')');
  if (paren != std::string::npos) {
    std::istringstream fields(stat.substr(paren + 1));
    std::vector<std::string> f;
    for (std::string w; fields >> w;) f.push_back(w);
    // f[0] is field 3 (state); utime and stime are fields 14 and 15.
    if (f.size() > 12) {
      out.cpu_s = (std::strtod(f[11].c_str(), nullptr) +
                   std::strtod(f[12].c_str(), nullptr)) /
                  static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  std::istringstream status(ReadFile(base + "/status"));
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out.hwm_mb = std::strtod(line.c_str() + 6, nullptr) / 1024;  // kB
    }
  }
  return out;
}

/// A free loopback port (for a leader that must come back on the same
/// port after a restart, so its follower reconnects).
int FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  int port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// One `pawctl serve` child. The destructor SIGKILLs and reaps it; the
/// child also dies with this process (PR_SET_PDEATHSIG).
class Pawd {
 public:
  static paw::Result<std::unique_ptr<Pawd>> Start(
      const std::string& pawctl, const std::string& dir,
      const std::vector<std::string>& options, const std::string& log_path) {
    std::vector<std::string> words = {pawctl, "serve", dir};
    words.insert(words.end(), options.begin(), options.end());
    std::vector<char*> argv;
    for (std::string& w : words) argv.push_back(w.data());
    argv.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
    if (log_fd < 0) return Status::Internal("cannot open " + log_path);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(log_fd);
      return Status::Internal("fork failed");
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    std::unique_ptr<Pawd> pawd(new Pawd(pid));
    const std::string marker = "pawd listening on port ";
    paw::Timer timer;
    while (timer.ElapsedMillis() < kStartTimeoutMs) {
      const std::string log = ReadFile(log_path);
      const size_t at = log.find(marker);
      if (at != std::string::npos &&
          log.find('\n', at) != std::string::npos) {
        pawd->port_ = std::atoi(log.c_str() + at + marker.size());
        return pawd;
      }
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pawd->pid_ = -1;
        return Status::Internal("pawd exited during start-up:\n" +
                                Tail(log));
      }
      // Short, so that the poll adds little to recovery_s.
      ::usleep(250);
    }
    return Status::Internal("pawd did not report its port in time");
  }

  ~Pawd() { Kill(); }
  Pawd(const Pawd&) = delete;
  Pawd& operator=(const Pawd&) = delete;

  /// SIGKILL and reap; idempotent.
  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  int port() const { return port_; }
  ProcSample Proc() const { return ReadProc(pid_); }

 private:
  explicit Pawd(pid_t pid) : pid_(pid) {}
  pid_t pid_ = -1;
  int port_ = 0;
};

// ---- Clients -----------------------------------------------------------------

paw::Result<PawClient> Dial(int port, const std::string& principal) {
  auto client = PawClient::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  PAW_RETURN_NOT_OK(client.value().Auth(principal));
  return client;
}

std::atomic<uint64_t> g_trace_seq{1};

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NextTraceId(bool sampled) {
  const uint64_t n = g_trace_seq.fetch_add(1, std::memory_order_relaxed);
  return sampled ? n * kTracedSampleN : (n << 1) | 1;
}

/// One client request as the client saw it.
struct OpRecord {
  // steady_clock nanoseconds, the clock of TraceNowMicros: latencies
  // keep sub-microsecond digits, so a median of a few dozen microseconds
  // does not read the same on every run.
  int64_t start_ns = 0;  ///< at send
  int64_t end_ns = 0;    ///< at the reply
  uint64_t trace_id = 0;
  uint64_t ticket = 0;    ///< pipelined writes only
  uint32_t payload = 0;   ///< execution text bytes of a write
  Op op = Op::kAdd;
  bool ok = false;
  bool sampled = false;
};

struct ThreadOut {
  std::vector<OpRecord> ops;
  std::vector<std::pair<int, int>> acks;  ///< (shard, exec_id)
  std::string error;                      ///< fatal client error, if any
};

/// What one load phase runs: which connections, for how long, and how
/// requests are traced.
struct LoadSpec {
  const Shape* shape = nullptr;
  const Inputs* in = nullptr;
  int port = 0;
  std::vector<int> runs;  ///< executions per tenant queries may address
  int writers = 0;
  int window = 1;
  int readers = 0;
  long ops_per_conn = -1;  ///< count bound per connection; -1 = none
  long writes_per_tenant = -1;  ///< count bound per writer's tenant
  int64_t deadline_us = INT64_MAX;
  uint64_t stream_seed = 0;
  // Traced runs alternate untraced and traced windows; requests in a
  // traced window are sampled with probability `sample_p`.
  bool trace = false;
  int64_t phase_start_us = 0;
  int64_t window_us = 250000;
  double sample_p = 0;
  double share = 1;  ///< of each segment's timed seconds
};

bool InTracedWindow(const LoadSpec& spec, int64_t now) {
  return spec.trace &&
         ((now - spec.phase_start_us) / spec.window_us) % 2 == 1;
}

bool Done(const LoadSpec& spec, long n, long limit) {
  return (limit >= 0 && n >= limit) ||
         paw::TraceNowMicros() >= spec.deadline_us;
}

/// A pipelined writer: keeps `window` ADD_EXECUTIONs in flight, round-
/// robin over the tenants it owns (tenant t belongs to writer t mod
/// writers, so every tenant's ordinals follow one connection's order).
void RunWriter(const LoadSpec& spec, int w, ThreadOut* out) {
  const Inputs& in = *spec.in;
  std::vector<size_t> mine;
  for (size_t t = w; t < in.tenants.size();
       t += static_cast<size_t>(spec.writers)) {
    mine.push_back(t);
  }
  if (mine.empty()) return;
  paw::Rng rng(spec.stream_seed + 7919 * static_cast<uint64_t>(w + 1));
  // Sampling draws come from their own stream, so a traced run sends
  // the same requests as an untraced one.
  paw::Rng sampler(rng.Next());
  std::optional<PawClient> client;
  std::deque<size_t> in_flight;
  const auto await_front = [&] {
    OpRecord& rec = out->ops[in_flight.front()];
    in_flight.pop_front();
    auto ack = client->AwaitAddExecution(rec.ticket);
    rec.end_ns = NowNanos();
    rec.ok = ack.ok();
    if (ack.ok()) out->acks.emplace_back(ack.value().shard, ack.value().exec_id);
  };
  const long limit =
      spec.writes_per_tenant >= 0
          ? spec.writes_per_tenant * static_cast<long>(mine.size())
          : spec.ops_per_conn;
  for (long n = 0; !Done(spec, n, limit); ++n) {
    if (!client) {
      auto dialed = Dial(spec.port, kAdmin);
      if (!dialed.ok()) {
        out->error = dialed.status().ToString();
        break;
      }
      client.emplace(std::move(dialed).value());
    }
    const Tenant& t = in.tenants[mine[static_cast<size_t>(n) % mine.size()]];
    const std::string& text = t.execs[rng.Uniform(t.execs.size())];
    OpRecord rec;
    rec.op = Op::kAdd;
    rec.payload = static_cast<uint32_t>(text.size());
    rec.start_ns = NowNanos();
    rec.sampled = InTracedWindow(spec, rec.start_ns / 1000) &&
                  sampler.UniformDouble() < spec.sample_p;
    rec.trace_id = NextTraceId(rec.sampled);
    paw::Result<paw::PawTicket> ticket = Status::Internal("unsent");
    {
      paw::ScopedTraceContext scope({rec.trace_id, rec.trace_id ^ 1});
      ticket = client->SendAddExecution(t.name, text);
    }
    if (!ticket.ok()) {
      rec.end_ns = NowNanos();
      out->ops.push_back(rec);
      while (!in_flight.empty()) await_front();
      client.reset();
      continue;
    }
    rec.ticket = ticket.value();
    out->ops.push_back(rec);
    in_flight.push_back(out->ops.size() - 1);
    if (in_flight.size() >= static_cast<size_t>(spec.window)) await_front();
  }
  while (client && !in_flight.empty()) await_front();
}

/// A closed-loop reader: one request per round trip, drawn from the
/// workload's mix, re-authenticating as a freshly drawn principal every
/// kReauthEvery requests (the admin when the workload has none).
void RunReader(const LoadSpec& spec, int r, ThreadOut* out) {
  const Shape& shape = *spec.shape;
  const Inputs& in = *spec.in;
  paw::Rng rng(spec.stream_seed + 104729 * static_cast<uint64_t>(r + 1));
  paw::Rng sampler(rng.Next());
  const ZipfTable principals(in.principals.size(), shape.skew);
  const ZipfTable specs(in.tenants.size(), shape.skew);
  const ZipfTable keywords(in.keywords.size(), shape.skew);
  int hot_runs = *std::min_element(spec.runs.begin(), spec.runs.end());
  if (shape.skew > 0) hot_runs = std::min(hot_runs, 32);
  const ZipfTable ordinals(static_cast<size_t>(std::max(hot_runs, 1)),
                           shape.skew);
  std::optional<PawClient> client;
  for (long n = 0; !Done(spec, n, spec.ops_per_conn); ++n) {
    if (!client || n % kReauthEvery == 0) {
      const std::string who =
          in.principals.empty() ? kAdmin
                                : in.principals[principals.Sample(&rng)].name;
      paw::ScopedTraceContext scope({NextTraceId(false), 1});
      Status st = client ? client->Auth(who) : Status::Internal("no client");
      if (!st.ok()) {
        auto dialed = Dial(spec.port, who);
        if (!dialed.ok()) {
          out->error = dialed.status().ToString();
          return;
        }
        client.emplace(std::move(dialed).value());
      }
    }
    OpRecord rec;
    rec.op = shape.mix.Sample(&rng);
    const size_t s = specs.Sample(&rng);
    const Tenant& t = in.tenants[s];
    const int ordinal =
        shape.skew > 0 ? static_cast<int>(ordinals.Sample(&rng))
                       : static_cast<int>(rng.Uniform(
                             static_cast<uint64_t>(spec.runs[s])));
    rec.start_ns = NowNanos();
    rec.sampled = InTracedWindow(spec, rec.start_ns / 1000) &&
                  sampler.UniformDouble() < spec.sample_p;
    rec.trace_id = NextTraceId(rec.sampled);
    paw::ScopedTraceContext scope({rec.trace_id, rec.trace_id ^ 1});
    switch (rec.op) {
      case Op::kAdd: {
        const std::string& text = t.execs[rng.Uniform(t.execs.size())];
        rec.payload = static_cast<uint32_t>(text.size());
        rec.start_ns = NowNanos();
        auto ack = client->AddExecution(t.name, text);
        rec.ok = ack.ok();
        if (ack.ok()) {
          out->acks.emplace_back(ack.value().shard, ack.value().exec_id);
        }
        break;
      }
      case Op::kLineage: {
        const int item = static_cast<int>(
            rng.Uniform(static_cast<uint64_t>(std::max(t.items, 1))));
        rec.start_ns = NowNanos();
        rec.ok = client->Lineage(t.name, ordinal, item).ok();
        break;
      }
      case Op::kStructural: {
        paw::wire::StructuralRequest req;
        req.spec_name = t.name;
        req.var_terms = {in.keywords[keywords.Sample(&rng)],
                         in.keywords[keywords.Sample(&rng)]};
        req.edges = {{0, 1, true}};
        rec.start_ns = NowNanos();
        rec.ok = client->Structural(req).ok();
        break;
      }
      case Op::kSearch: {
        const std::string& term = in.keywords[keywords.Sample(&rng)];
        rec.start_ns = NowNanos();
        rec.ok = client->Search({term}).ok();
        break;
      }
      case Op::kGetExec:
        rec.start_ns = NowNanos();
        rec.ok = client->GetExecution(t.name, ordinal).ok();
        break;
    }
    rec.end_ns = NowNanos();
    out->ops.push_back(rec);
    if (!rec.ok) client.reset();
  }
}

/// Spans gathered from every node's flight recorder during a traced
/// phase, deduplicated (consecutive dumps overlap).
struct SpanStore {
  std::vector<paw::Span> spans;
  std::unordered_set<uint64_t> seen;  ///< node-tagged span ids

  void Add(int node, const std::vector<paw::Span>& batch) {
    for (const paw::Span& s : batch) {
      if (s.kind != paw::SpanKind::kSpan || s.trace_id % kTracedSampleN != 0) {
        continue;
      }
      if (seen.insert(s.span_id * 2 + static_cast<uint64_t>(node)).second) {
        spans.push_back(s);
      }
    }
  }
};

struct PhaseResult {
  std::vector<OpRecord> ops;
  std::vector<std::pair<int, int>> acks;
  int64_t start_us = 0;
  int64_t end_us = 0;
  std::string error;
};

/// Runs one load phase to completion. In a traced phase the calling
/// thread dumps every node's span ring at the end of each traced
/// window: audit events (one per query, never sampled away) fill the
/// 8,192-slot ring within seconds, so a single dump after the phase
/// would find the early traces overwritten.
PhaseResult RunLoad(const LoadSpec& spec, const std::vector<int>& dump_ports,
                    SpanStore* spans) {
  const int conns = spec.writers + spec.readers;
  std::vector<ThreadOut> outs(static_cast<size_t>(conns));
  std::atomic<int> finished{0};
  PhaseResult result;
  result.start_us = paw::TraceNowMicros();
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      if (c < spec.writers) {
        RunWriter(spec, c, &outs[static_cast<size_t>(c)]);
      } else {
        RunReader(spec, c - spec.writers, &outs[static_cast<size_t>(c)]);
      }
      finished.fetch_add(1);
    });
  }
  std::vector<std::optional<PawClient>> dumpers(dump_ports.size());
  const auto dump_all = [&] {
    for (size_t i = 0; i < dump_ports.size(); ++i) {
      if (!dumpers[i]) {
        auto dialed = Dial(dump_ports[i], kAdmin);
        if (!dialed.ok()) continue;
        dumpers[i].emplace(std::move(dialed).value());
      }
      paw::wire::TraceDumpRequest req;
      req.mode = paw::wire::TraceDumpMode::kAll;
      req.max_spans = 8192;
      paw::ScopedTraceContext scope({NextTraceId(false), 1});
      auto resp = dumpers[i]->TraceDump(req);
      if (resp.ok()) {
        spans->Add(static_cast<int>(i), resp.value().spans);
      } else {
        dumpers[i].reset();
      }
    }
  };
  if (spec.trace && spans != nullptr) {
    // Dump shortly before each traced window closes.
    for (int64_t k = 1; finished.load() < conns; k += 2) {
      const int64_t at =
          spec.phase_start_us + (k + 1) * spec.window_us - 20000;
      while (finished.load() < conns && paw::TraceNowMicros() < at) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (finished.load() < conns) dump_all();
    }
  }
  for (std::thread& t : threads) t.join();
  result.end_us = paw::TraceNowMicros();
  if (spec.trace && spans != nullptr) dump_all();
  for (ThreadOut& out : outs) {
    result.ops.insert(result.ops.end(), out.ops.begin(), out.ops.end());
    result.acks.insert(result.acks.end(), out.acks.begin(), out.acks.end());
    if (result.error.empty()) result.error = out.error;
  }
  return result;
}

// ---- Set-up ------------------------------------------------------------------

/// The pawd processes of one set-up and what the benchmark stored there.
struct Cluster {
  std::string root;
  std::string leader_dir, follower_dir;
  std::vector<std::string> leader_options;
  std::unique_ptr<Pawd> leader, follower;
  std::vector<int> runs;  ///< corpus executions per tenant
  long acked = 0;         ///< acknowledged ADD_EXECUTIONs, all phases
  long attempted = 0;     ///< ADD_EXECUTIONs sent, all phases
  uint64_t payload_bytes = 0;  ///< spec, policy and execution text acked
  std::vector<std::pair<int, int>> acks;
  double setup_s = 0;
  double recovery_s = 0;
  // The same restart, as pawd's METRICS report it: recovery seconds
  // summed over shards, and the records replayed.
  double store_recovery_s = 0;
  double store_recovery_records = 0;
  double rss_mb = 0;
  /// Warmup rates of each load phase, which size the traced windows.
  struct Rate {
    double ops_s = 0, reads_s = 0;
  };
  std::vector<Rate> warm;

  ~Cluster() {
    if (follower) follower->Kill();
    if (leader) leader->Kill();
    std::error_code ec;
    if (!root.empty()) fs::remove_all(root, ec);
  }

  void Account(const PhaseResult& phase) {
    for (const OpRecord& rec : phase.ops) {
      if (rec.op != Op::kAdd) continue;
      ++attempted;
      if (rec.ok) {
        ++acked;
        payload_bytes += rec.payload;
      }
    }
    acks.insert(acks.end(), phase.acks.begin(), phase.acks.end());
  }
};

struct Env {
  std::string pawctl;
  std::string work_root;  ///< scratch space inside the build directory
  uint64_t seed = 1;
  bool trace = false;
};

/// `pawctl serve` options besides its defaults (workers=4, writers=4,
/// sync=each, view cache on at 64 MiB).
std::vector<std::string> ServeOptions(const Shape& shape, const Inputs& in,
                                      const Env& env, int port) {
  std::vector<std::string> options = {
      "shards=" + std::to_string(kShards), "auth=" + in.auth,
      "trace-sample=" +
          std::to_string(env.trace ? kTracedSampleN : kUntracedSampleN),
      "port=" + std::to_string(port)};
  if (shape.serve_extra != nullptr) options.push_back(shape.serve_extra);
  return options;
}

/// Waits for the first STATUS answered by `port` and returns it.
paw::Result<paw::wire::StatusResponse> FirstStatus(int port) {
  paw::Timer timer;
  for (;;) {
    auto client = Dial(port, kAdmin);
    if (client.ok()) {
      auto status = client.value().GetStatus();
      if (status.ok()) return status;
    }
    if (timer.ElapsedMillis() > kStartTimeoutMs) {
      return Status::Internal("no STATUS answer after restart");
    }
    ::usleep(1000);
  }
}

/// Waits until the leader on `port` has a subscribed follower: a quorum
/// write sent before that would wait out its whole quorum timeout.
Status WaitForSubscriber(int port) {
  paw::Timer timer;
  while (timer.ElapsedMillis() < kStartTimeoutMs) {
    auto snap = FetchMetrics(port, kAdmin);
    if (snap.ok() && GaugeValue(snap.value(), "paw_repl_subscribers") > 0) {
      return Status::OK();
    }
    ::usleep(5000);
  }
  return Status::Internal("the follower never subscribed");
}

/// SIGKILLs the leader and starts it again on the same store and port
/// with `extra` options; returns seconds from the kill to the first
/// STATUS answered, checking the executions it reports.
paw::Result<double> KillAndRestartLeader(Cluster* c, const Env& env,
                                         const std::vector<std::string>& extra,
                                         std::string* problem) {
  std::vector<std::string> options = c->leader_options;
  options.insert(options.end(), extra.begin(), extra.end());
  const int64_t kill_us = paw::TraceNowMicros();
  c->leader->Kill();
  c->leader.reset();
  PAW_ASSIGN_OR_RETURN(c->leader,
                       Pawd::Start(env.pawctl, c->leader_dir, options,
                                   c->root + "/leader.log"));
  PAW_ASSIGN_OR_RETURN(paw::wire::StatusResponse status,
                       FirstStatus(c->leader->port()));
  const double secs = (paw::TraceNowMicros() - kill_us) / 1e6;
  if (c->follower) PAW_RETURN_NOT_OK(WaitForSubscriber(c->leader->port()));
  // Every acknowledged write survives the kill; unacknowledged ones may.
  if (status.executions < c->acked || status.executions > c->attempted) {
    *problem = "after SIGKILL the store holds " +
               std::to_string(status.executions) +
               " executions; acked " + std::to_string(c->acked) +
               ", sent " + std::to_string(c->attempted);
  }
  return secs;
}

LoadSpec BaseLoad(const Shape& shape, const Inputs& in, const Cluster& c) {
  LoadSpec spec;
  spec.shape = &shape;
  spec.in = &in;
  spec.port = c.leader->port();
  spec.runs = c.runs;
  spec.writers = shape.writers;
  spec.window = shape.window;
  spec.readers = shape.readers;
  return spec;
}

/// The load phases of a warmup or timed segment, in order. A workload
/// with a query_share runs its readers alone, then its writers alone:
/// the writes meet no queries, and the queries see the same store on
/// every commit, whatever the write rate.
std::vector<LoadSpec> Phases(const Shape& shape, const Inputs& in,
                             const Cluster& c) {
  const LoadSpec both = BaseLoad(shape, in, c);
  if (shape.query_share <= 0) return {both};
  LoadSpec reads = both, writes = both;
  reads.writers = 0;
  reads.share = shape.query_share;
  writes.readers = 0;
  writes.share = 1 - shape.query_share;
  return {reads, writes};
}

/// Reads the restart's recovery work from the leader's METRICS.
Status ReadRecovery(Cluster* c) {
  PAW_ASSIGN_OR_RETURN(paw::MetricsSnapshot snap,
                       FetchMetrics(c->leader->port(), kAdmin));
  const paw::MetricSample* rec = snap.Find("paw_store_recovery_seconds");
  c->store_recovery_s = rec != nullptr ? rec->histogram.sum : 0;
  c->store_recovery_records = static_cast<double>(
      snap.SumCounters("paw_store_recovery_records_total"));
  return Status::OK();
}

/// One full set-up: spawn, specs, corpus, SIGKILL + restart (the
/// recovery measurement), fixed-count warmup.
paw::Result<std::unique_ptr<Cluster>> SetUp(const Shape& shape,
                                            const Inputs& in, const Env& env,
                                            int index) {
  const int64_t t0 = paw::TraceNowMicros();
  auto c = std::make_unique<Cluster>();
  c->root = FreshDir(env.work_root + "/setup" + std::to_string(index));
  c->leader_dir = c->root + "/leader";
  c->follower_dir = c->root + "/follower";
  c->leader_options =
      ServeOptions(shape, in, env, shape.quorum ? FreePort() : 0);
  if (shape.quorum) c->leader_options.push_back("acks=quorum");
  PAW_ASSIGN_OR_RETURN(c->leader,
                       Pawd::Start(env.pawctl, c->leader_dir,
                                   c->leader_options, c->root + "/leader.log"));
  if (shape.quorum) {
    std::vector<std::string> options = ServeOptions(shape, in, env, 0);
    options.push_back("follow=127.0.0.1:" +
                      std::to_string(c->leader->port()));
    options.push_back(std::string("follow-principal=") + kAdmin);
    PAW_ASSIGN_OR_RETURN(c->follower,
                         Pawd::Start(env.pawctl, c->follower_dir, options,
                                     c->root + "/follower.log"));
    PAW_RETURN_NOT_OK(WaitForSubscriber(c->leader->port()));
  }
  {
    PAW_ASSIGN_OR_RETURN(PawClient admin, Dial(c->leader->port(), kAdmin));
    for (const Tenant& t : in.tenants) {
      auto added = admin.AddSpec(t.spec_text, t.policy_text);
      if (!added.ok()) return added.status();
      c->payload_bytes += t.spec_text.size() + t.policy_text.size();
    }
  }
  c->runs.assign(in.tenants.size(), shape.corpus_runs);
  // Corpus: pipelined connections, each owning every n-th tenant and
  // sending corpus_runs executions per tenant it owns. A quorum write
  // holds one of pawd's four workers while it waits, and the follower's
  // acks need a free worker, so quorum shapes keep their own writer
  // count.
  {
    LoadSpec corpus = BaseLoad(shape, in, *c);
    corpus.writers = shape.quorum ? shape.writers : 4;
    corpus.window = 32;
    corpus.readers = 0;
    corpus.writes_per_tenant = shape.corpus_runs;
    corpus.stream_seed = env.seed ^ 0xC0A9;
    PhaseResult phase = RunLoad(corpus, {}, nullptr);
    c->Account(phase);
    if (!phase.error.empty() || c->acked != c->attempted) {
      return Status::Internal("corpus ingest failed: " + phase.error);
    }
  }
  std::string problem;
  PAW_ASSIGN_OR_RETURN(c->recovery_s,
                       KillAndRestartLeader(c.get(), env, {}, &problem));
  if (!problem.empty()) return Status::Internal(problem);
  PAW_RETURN_NOT_OK(ReadRecovery(c.get()));
  for (LoadSpec warm : Phases(shape, in, *c)) {
    warm.ops_per_conn = shape.warmup_ops;
    warm.stream_seed = env.seed ^ (0x3A7E + c->warm.size());
    PhaseResult phase = RunLoad(warm, {}, nullptr);
    c->Account(phase);
    if (!phase.error.empty()) {
      return Status::Internal("warmup failed: " + phase.error);
    }
    const double secs = (phase.end_us - phase.start_us) / 1e6;
    long reads = 0;
    for (const OpRecord& rec : phase.ops) reads += rec.op != Op::kAdd;
    c->warm.push_back({static_cast<double>(phase.ops.size()) / secs,
                       static_cast<double>(reads) / secs});
  }
  c->rss_mb = c->leader->Proc().hwm_mb;
  c->setup_s = (paw::TraceNowMicros() - t0) / 1e6;
  return c;
}

// ---- Verification ------------------------------------------------------------

struct Query {
  Op op = Op::kGetExec;
  std::string principal;
  size_t tenant = 0;
  int ordinal = 0;
  int item = 0;
  std::vector<std::string> terms;
};

/// A fixed verification set drawn from the seed. The first requests
/// pair an admin GET_EXECUTION with the same one from a level-0
/// principal, which the tenant policies must mask.
std::vector<Query> VerificationSet(const Inputs& in,
                                   const std::vector<int>& runs,
                                   uint64_t seed) {
  std::vector<Query> set;
  if (in.principals.empty()) return set;
  paw::Rng rng(seed ^ 0x5E7F1CA7E);
  std::string low = in.principals.front().name;
  for (const Principal& p : in.principals) {
    if (p.level == 0) {
      low = p.name;
      break;
    }
  }
  for (int i = 0; i < kVerifyRequests; ++i) {
    Query q;
    q.tenant = rng.Uniform(in.tenants.size());
    q.ordinal = static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(runs[q.tenant])));
    if (i < 20) {
      q.op = Op::kGetExec;
      q.principal = i % 2 == 0 ? kAdmin : low;
      if (i % 2 == 1) {
        q.tenant = set.back().tenant;
        q.ordinal = set.back().ordinal;
      }
    } else {
      const Op reads[] = {Op::kLineage, Op::kStructural, Op::kSearch,
                          Op::kGetExec};
      q.op = reads[rng.Uniform(4)];
      const size_t who = rng.Uniform(in.principals.size() + 1);
      q.principal = who == 0 ? kAdmin : in.principals[who - 1].name;
      q.item = static_cast<int>(rng.Uniform(
          static_cast<uint64_t>(std::max(in.tenants[q.tenant].items, 1))));
      q.terms = {in.keywords[rng.Uniform(in.keywords.size())],
                 in.keywords[rng.Uniform(in.keywords.size())]};
    }
    set.push_back(std::move(q));
  }
  return set;
}

/// The answer to `q`, re-encoded with the wire codec so two answers
/// compare field for field; errors compare by their status text.
std::string Answer(PawClient* client, const Inputs& in, const Query& q,
                   int* num_masked) {
  const std::string& spec = in.tenants[q.tenant].name;
  const auto render = [](const auto& result, auto encode) -> std::string {
    if (!result.ok()) return "error " + result.status().ToString();
    return "ok " + encode(result.value());
  };
  switch (q.op) {
    case Op::kLineage:
      return render(client->Lineage(spec, q.ordinal, q.item),
                    paw::wire::EncodeLineageResponse);
    case Op::kStructural: {
      paw::wire::StructuralRequest req;
      req.spec_name = spec;
      req.var_terms = q.terms;
      req.edges = {{0, 1, true}};
      return render(client->Structural(req),
                    paw::wire::EncodeStructuralResponse);
    }
    case Op::kSearch:
      return render(client->Search({q.terms.front()}),
                    paw::wire::EncodeSearchResponse);
    case Op::kGetExec: {
      auto resp = client->GetExecution(spec, q.ordinal);
      if (resp.ok()) *num_masked = resp.value().num_masked;
      return render(resp, paw::wire::EncodeGetExecutionResponse);
    }
    case Op::kAdd:
      break;
  }
  return "unsupported";
}

struct Answers {
  std::vector<std::string> text;
  std::vector<int> masked;
  std::string error;
};

Answers AnswerAll(int port, const Inputs& in, const std::vector<Query>& set) {
  Answers out;
  auto client = Dial(port, kAdmin);
  if (!client.ok()) {
    out.error = client.status().ToString();
    return out;
  }
  std::string as = kAdmin;
  for (const Query& q : set) {
    if (q.principal != as) {
      Status st = client.value().Auth(q.principal);
      if (!st.ok()) {
        out.error = st.ToString();
        return out;
      }
      as = q.principal;
    }
    int masked = -1;
    out.text.push_back(Answer(&client.value(), in, q, &masked));
    out.masked.push_back(masked);
  }
  return out;
}

/// Compares two answer sets; returns "" when identical and every
/// answer is OK, else a description of the first difference.
std::string CompareAnswers(const Answers& a, const Answers& b) {
  if (!a.error.empty()) return a.error;
  if (!b.error.empty()) return b.error;
  if (a.text.size() != b.text.size()) return "answer count differs";
  size_t differ = 0, failed = 0;
  for (size_t i = 0; i < a.text.size(); ++i) {
    differ += a.text[i] != b.text[i];
    failed += a.text[i].rfind("ok ", 0) != 0;
  }
  if (differ + failed == 0) return "";
  return std::to_string(differ) + " of " + std::to_string(a.text.size()) +
         " answers differ, " + std::to_string(failed) + " failed";
}

/// At least one admin/level-0 GET_EXECUTION pair where only the
/// low-level answer is masked.
bool MaskingShown(const Answers& a) {
  for (size_t i = 0; i + 1 < std::min<size_t>(a.masked.size(), 20); i += 2) {
    if (a.masked[i] == 0 && a.masked[i + 1] > 0) return true;
  }
  return false;
}

// ---- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           size_t samples = 0) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Check(std::string name, bool pass, std::string detail = "") {
    checks_.push_back({std::move(name), pass, std::move(detail)});
  }
  void Note(std::string line) { notes_.push_back(std::move(line)); }
  bool correct() const {
    for (const auto& c : checks_) {
      if (!c.pass) return false;
    }
    return true;
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  double Value(std::string_view name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return 0;
  }

  void Print() const {
    for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
    for (const Metric& m : metrics_) {
      if (m.samples > 0) {
        std::printf("%s %.6g %s (n=%zu)\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
      } else {
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    for (const auto& c : checks_) {
      std::printf("check %s %s%s%s\n", c.name.c_str(),
                  c.pass ? "pass" : "FAIL", c.detail.empty() ? "" : ": ",
                  c.detail.c_str());
    }
  }

  JsonObject MetricsJson() const {
    JsonObject out;
    for (const Metric& m : metrics_) {
      JsonObject one;
      one.Num("value", m.value).Str("unit", m.unit);
      if (m.samples > 0) one.Int("samples", static_cast<int64_t>(m.samples));
      out.Obj(m.name, one);
    }
    return out;
  }

  JsonObject ChecksJson() const {
    JsonObject out;
    for (const auto& c : checks_) out.Bool(c.name, c.pass);
    return out;
  }

 private:
  struct CheckResult {
    std::string name;
    bool pass;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<CheckResult> checks_;
  std::vector<std::string> notes_;
};

double SafeDiv(double a, double b) { return b > 0 ? a / b : 0; }

/// Latency in microseconds of the OK requests accepted by `keep`.
template <typename Pred>
std::vector<double> Latencies(const std::vector<OpRecord>& ops, Pred keep) {
  std::vector<double> out;
  for (const OpRecord& rec : ops) {
    if (rec.ok && keep(rec)) {
      out.push_back(static_cast<double>(rec.end_ns - rec.start_ns) / 1000);
    }
  }
  return out;
}

/// Client latency split by the server's spans, summed over the sampled
/// requests whose server span was found.
struct Breakdown {
  size_t sampled = 0, covered = 0;
  double rtt = 0, transport = 0, lease = 0, engine = 0, reply = 0,
         fsync = 0, quorum = 0, unaccounted = 0;
  std::vector<double> lease_us;

  void Print(const std::string& label, Report* report) const {
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "breakdown %-16s n=%-6zu rtt %8.1f us = transport %.3f + "
        "lease.wait %.3f + engine %.3f + reply %.3f + wal.fsync %.3f + "
        "quorum.wait %.3f + unaccounted %.3f",
        label.c_str(), covered, SafeDiv(rtt, static_cast<double>(covered)),
        SafeDiv(transport, rtt), SafeDiv(lease, rtt), SafeDiv(engine, rtt),
        SafeDiv(reply, rtt), SafeDiv(fsync, rtt), SafeDiv(quorum, rtt),
        SafeDiv(unaccounted, rtt));
    report->Note(line);
  }
};

void Attribute(const OpRecord& rec,
               const std::unordered_map<uint64_t, std::vector<const paw::Span*>>&
                   by_trace,
               Breakdown* b) {
  ++b->sampled;
  auto it = by_trace.find(rec.trace_id);
  if (it == by_trace.end()) return;
  const paw::Span* root = nullptr;
  for (const paw::Span* s : it->second) {
    if (s->name_view().rfind("req.", 0) == 0) root = s;
  }
  if (root == nullptr) return;
  ++b->covered;
  double lease = 0, engine = 0, reply = 0, fsync = 0, quorum = 0;
  for (const paw::Span* s : it->second) {
    const double d = static_cast<double>(s->end_us - s->start_us);
    const std::string_view name = s->name_view();
    if (name == "quorum.wait") quorum += d;
    if (name == "wal.fsync") fsync += d;
    if (s->parent_span_id != root->span_id) continue;
    if (name == "lease.wait") lease += d;
    if (name == "engine") engine += d;
    if (name == "reply") reply += d;
  }
  const double rtt = static_cast<double>(rec.end_ns - rec.start_ns) / 1000;
  const double req = static_cast<double>(root->end_us - root->start_us);
  b->rtt += rtt;
  b->transport += rtt - req;
  b->lease += lease;
  b->engine += engine;
  // A write's group-commit fsync and quorum wait run inside its reply
  // stage (lease to reply); they are split out of it.
  fsync = std::min(fsync, reply);
  quorum = std::min(quorum, reply - fsync);
  b->reply += reply - fsync - quorum;
  b->fsync += fsync;
  b->quorum += quorum;
  b->unaccounted += req - lease - engine - reply;
  b->lease_us.push_back(lease);
}

struct Snapshot {
  paw::MetricsSnapshot leader, follower;
  double cpu_s = 0;  ///< summed over every pawd of the cluster
};

paw::Result<Snapshot> TakeSnapshot(const Cluster& c) {
  Snapshot s;
  PAW_ASSIGN_OR_RETURN(s.leader, FetchMetrics(c.leader->port(), kAdmin));
  s.cpu_s = c.leader->Proc().cpu_s;
  if (c.follower) {
    PAW_ASSIGN_OR_RETURN(s.follower,
                         FetchMetrics(c.follower->port(), kAdmin));
    s.cpu_s += c.follower->Proc().cpu_s;
  }
  return s;
}

/// Per-layer numbers from METRICS deltas, /proc and the disk.
void LayerMetrics(const Snapshot& pre, const Snapshot& post,
                  const std::vector<OpRecord>& timed, uint64_t disk_bytes,
                  Report* report) {
  const paw::MetricsSnapshot& a = pre.leader;
  const paw::MetricsSnapshot& b = post.leader;
  double ops = 0, writes = 0, queries = 0, lineages = 0;
  for (const OpRecord& rec : timed) {
    if (!rec.ok) continue;
    ++ops;
    writes += rec.op == Op::kAdd;
    queries += rec.op != Op::kAdd;
    lineages += rec.op == Op::kLineage;
  }
  const auto delta = [&](std::string_view name) {
    return static_cast<double>(CounterDelta(a, b, name));
  };
  for (Op op : kAllOps) {
    const paw::HistogramData req = HistogramDelta(
        a, b, "paw_server_request_seconds{opcode=\"" + OpName(op) + "\"}");
    const std::string name = "server." + OpName(op);
    report->Add(name + ".req_p50_us", req.Quantile(0.50) * 1e6, "us",
                req.count);
    report->Add(name + ".req_p99_us", req.Quantile(0.99) * 1e6, "us",
                req.count);
  }
  report->Add("server.cpu_us_per_op", SafeDiv((post.cpu_s - pre.cpu_s) * 1e6, ops),
              "us");
  report->Add("server.bytes_in_per_op",
              SafeDiv(delta("paw_server_bytes_in_total"), ops), "bytes");
  report->Add("server.bytes_out_per_op",
              SafeDiv(delta("paw_server_bytes_out_total"), ops), "bytes");
  const paw::HistogramData fsync =
      HistogramDelta(a, b, "paw_wal_fsync_seconds");
  report->Add("store.wal.fsyncs_per_write",
              SafeDiv(static_cast<double>(fsync.count), writes), "count");
  report->Add("store.wal.fsync_p50_us", fsync.Quantile(0.50) * 1e6, "us",
              fsync.count);
  report->Add("store.wal.fsync_p99_us", fsync.Quantile(0.99) * 1e6, "us",
              fsync.count);
  report->Add("store.wal.frame_stage_copy_bytes_per_write",
              SafeDiv(delta("paw_wal_frame_stage_copy_bytes_total"), writes),
              "bytes");
  report->Add("store.disk_bytes", static_cast<double>(disk_bytes), "bytes");
  const double qhits = delta("paw_query_cache_hits_total");
  const double qmiss = delta("paw_query_cache_misses_total");
  report->Add("query.result_cache_hit_rate", SafeDiv(qhits, qhits + qmiss),
              "ratio");
  report->Add("query.catchups_per_query",
              SafeDiv(delta("paw_query_engine_catchups_total"), queries),
              "count");
  report->Add("query.engine_rebuilds",
              delta("paw_query_engine_rebuilds_total"), "count");
  const double vhits = delta("paw_privacy_view_cache_hits_total");
  const double vmiss = delta("paw_privacy_view_cache_misses_total");
  report->Add("privacy.view_cache_hit_rate", SafeDiv(vhits, vhits + vmiss),
              "ratio");
  report->Add("privacy.view_cache_evictions_per_query",
              SafeDiv(delta("paw_privacy_view_cache_evictions_total"), queries),
              "count");
  report->Add("privacy.view_computations_per_query",
              SafeDiv(delta("paw_privacy_view_computations_total"), queries),
              "count");
  report->Add("privacy.zoom_out_steps_per_lineage",
              SafeDiv(delta("paw_privacy_zoom_out_steps_total"), lineages),
              "count");
  report->Add("privacy.lineage_cones_per_lineage",
              SafeDiv(delta("paw_privacy_lineage_cones_total"), lineages),
              "count");
  report->Add("privacy.view_cache_mb",
              static_cast<double>(GaugeValue(b, "paw_privacy_view_cache_bytes")) /
                  (1 << 20),
              "MiB");
  for (const char* verdict : {"served", "masked", "denied"}) {
    report->Add(std::string("privacy.audit_") + verdict + "_per_query",
                SafeDiv(delta(std::string("paw_audit_events_total{verdict=\"") +
                              verdict + "\"}"),
                        queries),
                "count");
  }
  const double batches =
      static_cast<double>(CounterDelta(pre.follower, post.follower,
                                       "paw_repl_batches_applied_total"));
  const double records =
      static_cast<double>(CounterDelta(pre.follower, post.follower,
                                       "paw_repl_records_applied_total"));
  report->Add("replication.records_per_batch", SafeDiv(records, batches),
              "count");
  const paw::HistogramData lag = HistogramDelta(a, b, "paw_repl_lag_seconds");
  report->Add("replication.lag_p99_ms", lag.Quantile(0.99) * 1e3, "ms",
              lag.count);
}

// ---- One workload ----------------------------------------------------------

/// The measured segments of one run.
struct Totals {
  std::vector<OpRecord> ops;     ///< every timed request of every segment
  std::vector<Report> segments;  ///< metrics of each segment
  Breakdown total;
  std::map<Op, Breakdown> by_op;
  // Completed ops and time in untraced and traced windows.
  double ops_u = 0, ops_t = 0, time_u = 0, time_t = 0;
  std::string error;
};

/// Traces a phase of `seconds` in alternating windows, sized from the
/// phase's warmup rates: short enough that the audit events of an
/// untraced and a traced window plus the traced window's sampled spans
/// fit the ring between two dumps. pawd records four spans per sampled
/// query and up to eight per sampled quorum write; the sizing assumes
/// eight. The short warmup runs on cold caches, and the timed phase
/// reached 1.6 times its rate, so the sizing assumes twice it.
void TraceWindows(const Cluster::Rate& warm, double seconds, LoadSpec* spec) {
  const double q = 2 * std::max(warm.ops_s, 1.0);
  const double reads = 2 * warm.reads_s;
  const double window_s =
      std::min(std::clamp(2000.0 / q, 0.025, 0.25), seconds / 4);
  spec->window_us = static_cast<int64_t>(window_s * 1e6);
  spec->trace = true;
  spec->sample_p = std::clamp(
      (6000.0 - 2 * window_s * reads) / (window_s * q * 8), 0.01, 1.0);
}

/// Runs one timed segment of `seconds` on `c` and records its metrics.
Status MeasureSegment(const Shape& shape, const Inputs& in, const Env& env,
                      int index, double seconds, Cluster* c, Totals* t) {
  PAW_ASSIGN_OR_RETURN(Snapshot pre, TakeSnapshot(*c));
  std::vector<int> nodes = {c->leader->port()};
  if (c->follower) nodes.push_back(c->follower->port());
  std::vector<OpRecord> timed_ops;
  // Requests completed by their phase's deadline, and the seconds of the
  // phases that sent writes and reads.
  double writes_done = 0, reads_done = 0, write_s = 0, read_s = 0;
  std::vector<LoadSpec> phases = Phases(shape, in, *c);
  for (size_t p = 0; p < phases.size(); ++p) {
    LoadSpec& timed = phases[p];
    const double length = seconds * timed.share;
    timed.stream_seed =
        (env.seed * 1000003 + static_cast<uint64_t>(index)) * 4 + p;
    timed.phase_start_us = paw::TraceNowMicros();
    timed.deadline_us =
        timed.phase_start_us + static_cast<int64_t>(length * 1e6);
    if (env.trace) TraceWindows(c->warm[p], length, &timed);
    SpanStore spans;
    PhaseResult phase = RunLoad(timed, nodes, &spans);
    c->Account(phase);
    if (t->error.empty()) t->error = phase.error;
    if (timed.writers > 0 || (timed.readers > 0 && shape.mix.weight[0] > 0)) {
      write_s += length;
    }
    if (timed.readers > 0) read_s += length;

    std::unordered_map<uint64_t, std::vector<const paw::Span*>> by_trace;
    for (const paw::Span& s : spans.spans) by_trace[s.trace_id].push_back(&s);
    for (const OpRecord& rec : phase.ops) {
      if (rec.ok && rec.end_ns <= timed.deadline_us * 1000) {
        (rec.op == Op::kAdd ? writes_done : reads_done) += 1;
        if (env.trace) {
          (InTracedWindow(timed, rec.end_ns / 1000) ? t->ops_t : t->ops_u) +=
              1;
        }
      }
      if (rec.ok && rec.sampled) {
        Attribute(rec, by_trace, &t->total);
        Attribute(rec, by_trace, &t->by_op[rec.op]);
      }
    }
    if (env.trace) {
      for (int64_t w = timed.phase_start_us; w < timed.deadline_us;
           w += timed.window_us) {
        const double len = static_cast<double>(
            std::min(w + timed.window_us, timed.deadline_us) - w);
        (InTracedWindow(timed, w) ? t->time_t : t->time_u) += len / 1e6;
      }
    }
    timed_ops.insert(timed_ops.end(), phase.ops.begin(), phase.ops.end());
  }
  PAW_ASSIGN_OR_RETURN(Snapshot post, TakeSnapshot(*c));
  const uint64_t disk_bytes = DirBytes(c->leader_dir);

  // Throughput, set-up, recovery and sizes per segment; latencies are
  // taken over every segment's requests together (see RunWorkload).
  t->segments.emplace_back();
  Report& seg = t->segments.back();
  seg.Add("setup_s", c->setup_s, "s", 1);
  seg.Add("ingest_ops_s", SafeDiv(writes_done, write_s), "1/s");
  seg.Add("query_ops_s", SafeDiv(reads_done, read_s), "1/s");
  seg.Add("recovery_s", c->recovery_s, "s", 1);
  seg.Add("disk_bytes_per_payload_byte",
          SafeDiv(static_cast<double>(disk_bytes),
                  static_cast<double>(c->payload_bytes)),
          "ratio", 1);
  seg.Add("server_rss_mb", c->rss_mb, "MiB", 1);
  seg.Add("store.recovery_s", c->store_recovery_s, "s", 1);
  seg.Add("store.recovery_records", c->store_recovery_records, "count", 1);
  LayerMetrics(pre, post, timed_ops, disk_bytes, &seg);
  t->ops.insert(t->ops.end(), timed_ops.begin(), timed_ops.end());
  return Status::OK();
}

/// Every segment's metrics merged into `report`: each metric's median
/// across segments (robust to a segment a noisy neighbour stalled), with
/// the samples summed.
void AddSegmentMedians(const std::vector<Report>& segments, Report* report) {
  if (segments.empty()) return;
  const std::vector<Metric>& first = segments.front().metrics();
  for (size_t i = 0; i < first.size(); ++i) {
    std::vector<double> values;
    size_t samples = 0;
    for (const Report& seg : segments) {
      values.push_back(seg.metrics()[i].value);
      samples += seg.metrics()[i].samples;
    }
    report->Add(first[i].name, Median(values), first[i].unit, samples);
  }
}

/// The untimed correctness checks, on the last segment's cluster.
void RunChecks(const Shape& shape, const Inputs& in, const Env& env,
               Cluster* c, Report* report) {
  std::set<std::pair<int, int>> unique(c->acks.begin(), c->acks.end());
  report->Check("acks_unique", unique.size() == c->acks.size(),
                std::to_string(c->acks.size()) + " acks");
  const std::vector<Query> verify = VerificationSet(in, c->runs, env.seed);
  Answers warm;
  if (!verify.empty()) {
    warm = AnswerAll(c->leader->port(), in, verify);
    report->Check("masking_exercised", MaskingShown(warm));
  }
  if (c->follower) {
    // The follower must converge to the leader's execution count, then
    // answer the verification set exactly as the leader does.
    std::string converged = "follower never reached the leader's count";
    auto leader = FirstStatus(c->leader->port());
    paw::Timer timer;
    while (leader.ok() && timer.ElapsedMillis() < 60000) {
      auto follower = FirstStatus(c->follower->port());
      if (follower.ok() &&
          follower.value().executions == leader.value().executions) {
        converged.clear();
        break;
      }
      ::usleep(20000);
    }
    report->Check("follower_converged", converged.empty(), converged);
    const std::string diff =
        CompareAnswers(warm, AnswerAll(c->follower->port(), in, verify));
    report->Check("follower_answers_identical", diff.empty(), diff);
  }
  // The tenant workloads restart with the view cache off: memoized and
  // recomputed privacy views must give the same answers.
  const std::vector<std::string> extra =
      shape.policies && !c->follower ? std::vector<std::string>{"viewcache=off"}
                                     : std::vector<std::string>{};
  std::string problem;
  auto restarted = KillAndRestartLeader(c, env, extra, &problem);
  report->Check("durable_after_kill", restarted.ok() && problem.empty(),
                restarted.ok() ? problem : restarted.status().ToString());
  if (!restarted.ok()) return;
  if (!extra.empty()) {
    const std::string diff =
        CompareAnswers(warm, AnswerAll(c->leader->port(), in, verify));
    report->Check("viewcache_off_answers_identical", diff.empty(), diff);
  }
}

std::string GitSha() {
  const char* sha = std::getenv("PAWBENCH_GIT_SHA");
  return sha != nullptr && *sha != '\0' ? sha : "unknown";
}

int RunWorkload(const Shape& shape, const Env& env_in, double seconds) {
  Env env = env_in;
  env.work_root = FreshDir(env_in.work_root + "/" + shape.name + "-" +
                           std::to_string(::getpid()));
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{env.work_root};

  std::printf("=== paw_bench %s (seed %llu, %g s in %d segments%s) ===\n",
              shape.name, static_cast<unsigned long long>(env.seed), seconds,
              kSegments, env.trace ? ", traced" : "");
  std::printf("why: %s\n", shape.why);
  std::fflush(stdout);
  auto inputs = MakeInputs(shape, env.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 2;
  }
  const Inputs& in = inputs.value();

  // Each segment sets up a fresh cluster (so setup_s is a median over
  // kSegments set-ups) and measures seconds / kSegments on it; the
  // write volume a segment leaves in pawd's memory stays bounded.
  Totals totals;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSegments; ++i) {
    cluster.reset();
    auto made = SetUp(shape, in, env, i);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up: %s\n", made.status().ToString().c_str());
      return 2;
    }
    cluster = std::move(made).value();
    Status st = MeasureSegment(shape, in, env, i, seconds / kSegments,
                               cluster.get(), &totals);
    if (!st.ok()) {
      std::fprintf(stderr, "segment %d: %s\n", i, st.ToString().c_str());
      return 2;
    }
  }

  Report report;
  for (size_t i = 0; i < totals.segments.size(); ++i) {
    const Report& seg = totals.segments[i];
    char line[200];
    std::snprintf(line, sizeof(line),
                  "segment %zu: set-up %.3f s, recovery %.4f s, "
                  "%.1f writes/s, %.1f queries/s",
                  i, seg.Value("setup_s"), seg.Value("recovery_s"),
                  seg.Value("ingest_ops_s"), seg.Value("query_ops_s"));
    report.Note(line);
  }
  report.Note("pawd VmHWM after the last segment: " +
              std::to_string(cluster->leader->Proc().hwm_mb) + " MiB");
  if (!totals.error.empty()) report.Note("client error: " + totals.error);
  long attempted = 0, failed = 0;
  for (const OpRecord& rec : totals.ops) {
    ++attempted;
    failed += !rec.ok;
  }

  // Latencies: percentiles over the requests of every segment together,
  // so that an op making up 5% of a mix still has its p99 on over 1,000
  // samples.
  JsonObject per_op;
  size_t fewest = SIZE_MAX;
  for (const OpMetric& m : kOpMetrics) {
    std::vector<double> lat = Latencies(
        totals.ops, [&m](const OpRecord& r) { return r.op == m.op; });
    const Percentile o50 = NearestRank(&lat, 0.50);
    const Percentile o99 = NearestRank(&lat, 0.99);
    fewest = std::min(fewest, o50.count);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "op %-16s n=%-7zu p50 %8.1f us  p99 %9.1f us",
                  OpName(m.op).c_str(), o50.count, o50.value, o99.value);
    report.Note(line);
    per_op.Obj(OpName(m.op),
               JsonObject()
                   .Int("samples", static_cast<int64_t>(o50.count))
                   .Num("p50_us", o50.value)
                   .Num("p99_us", o99.value));
    report.Add(std::string(m.prefix) + "_p50_us", o50.value, "us", o50.count);
    if (m.p99) {
      report.Add(std::string(m.prefix) + "_p99_us", o99.value, "us",
                 o99.count);
    }
  }
  report.Check("op_samples", fewest >= kMinP99Samples,
               "fewest for one op: " + std::to_string(fewest));
  report.Add("ok_ratio",
             SafeDiv(static_cast<double>(attempted - failed),
                     static_cast<double>(attempted)),
             "ratio", static_cast<size_t>(attempted));

  // Throughput, set-up, recovery, sizes and the per-layer counts:
  // medians over the segments.
  AddSegmentMedians(totals.segments, &report);
  if (env.trace) {
    for (const auto& [op, by] : totals.by_op) by.Print(OpName(op), &report);
    const Breakdown& b = totals.total;
    b.Print("all", &report);
    for (Op op : kAllOps) {
      const Breakdown& by = totals.by_op[op];
      const double n = static_cast<double>(by.covered);
      const std::string server = "server." + OpName(op);
      report.Add("client." + OpName(op) + ".transport_share",
                 SafeDiv(by.transport, by.rtt), "ratio", by.covered);
      report.Add(server + ".lease_wait_us", SafeDiv(by.lease, n), "us",
                 by.covered);
      report.Add(server + ".engine_us", SafeDiv(by.engine, n), "us",
                 by.covered);
      report.Add(server + ".reply_us", SafeDiv(by.reply, n), "us",
                 by.covered);
    }
    const Breakdown& w = totals.by_op[Op::kAdd];
    report.Add("store.wal.fsync_share", SafeDiv(w.fsync, w.rtt), "ratio",
               w.covered);
    report.Add("replication.quorum_wait_share", SafeDiv(w.quorum, w.rtt),
               "ratio", w.covered);
    std::vector<double> lease = b.lease_us;
    const Percentile lease99 = NearestRank(&lease, 0.99);
    report.Add("server.lease_wait_p99_us", lease99.value, "us",
               lease99.count);
    report.Add("server.unaccounted_share", SafeDiv(b.unaccounted, b.rtt),
               "ratio", b.covered);
    report.Add("trace.coverage",
               SafeDiv(static_cast<double>(b.covered),
                       static_cast<double>(b.sampled)),
               "ratio", b.sampled);
    const double ops_u = SafeDiv(totals.ops_u, totals.time_u);
    const double ops_t = SafeDiv(totals.ops_t, totals.time_t);
    report.Add("trace.overhead_pct", SafeDiv(ops_u - ops_t, ops_u) * 100,
               "%");
    size_t fewest_traced = SIZE_MAX;
    for (Op op : kAllOps) {
      fewest_traced = std::min(fewest_traced, totals.by_op[op].covered);
    }
    report.Check("trace_samples_per_op", fewest_traced >= kMinTracesPerOp,
                 "fewest for one op: " + std::to_string(fewest_traced));
    report.Check("trace_coverage",
                 b.sampled > 0 &&
                     static_cast<double>(b.covered) >=
                         0.95 * static_cast<double>(b.sampled),
                 std::to_string(b.covered) + " of " +
                     std::to_string(b.sampled) + " sampled traces");
  }

  RunChecks(shape, in, env, cluster.get(), &report);

  report.Print();
  JsonObject json;
  json.Str("bench", "paw_bench")
      .Str("workload", shape.name)
      .Str("why", shape.why)
      .Int("seed", static_cast<int64_t>(env.seed))
      .Num("seconds", seconds)
      .Bool("trace", env.trace)
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("git_sha", GitSha())
      .Str("build_type", PAWBENCH_BUILD_TYPE)
      .Bool("correct", report.correct())
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Obj("checks", report.ChecksJson())
      .Obj("metrics", report.MetricsJson())
      .Obj("ops", per_op);
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

struct Args {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag == "--trace") {
      value = "1";
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        value = argv[++i];
      }
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value != "0";
    } else {
      return false;
    }
  }
  return args->seconds > 0;
}

}  // namespace
}  // namespace pawbench

int main(int argc, char** argv) {
  using namespace pawbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: paw_bench [--workload=NAME|all] [--seed=N] "
                 "[--seconds=S] [--trace[=0|1]]\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  const fs::path exe = fs::read_symlink("/proc/self/exe");
  Env env;
  env.pawctl = (exe.parent_path() / "pawctl").string();
  env.work_root = (exe.parent_path() / "runs").string();
  env.seed = args.seed;
  env.trace = args.trace;
  if (!fs::exists(env.pawctl)) {
    std::fprintf(stderr, "missing %s (build the pawctl target)\n",
                 env.pawctl.c_str());
    return 2;
  }
  int rc = 0;
  bool matched = false;
  for (const Shape& shape : kShapes) {
    if (args.workload != "all" && args.workload != shape.name) continue;
    matched = true;
    rc = std::max(rc, RunWorkload(shape, env, args.seconds));
  }
  if (!matched) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return rc;
}
