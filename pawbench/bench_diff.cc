// bench_diff: compares paw_bench runs of two commits, or summarizes the
// runs of one.
//
//   bench_diff PARENT_DIR [CHANGE_DIR] [--benchmark=BENCHMARK.json]
//
// Each directory holds paw_bench output files (one run per file; any
// file name). Untraced runs only. With one directory it prints, per
// workload and metric, the median and quartiles of the runs as one JSON
// object (the format of results/baseline-*.json). With two it prints,
// per workload and end-to-end metric of BENCHMARK.json: both medians and
// quartiles, the fraction of run pairs the change wins, and one verdict:
//
//   improved     the change wins >= 9/10 of the pairs and the medians
//                differ by more than the parent's interquartile range
//   unchanged    the change's median is within the metric's bound
//   regressed    the change's median is worse than the bound allows
//   unresolved   the parent's runs spread wider than the bound, and not
//                every change run beats every parent run
//
// Pairs are the i-th run of a workload in each directory, in file-name
// order, so name the files by pair (e.g. pair03.txt) when alternating
// the two commits. Quartiles follow Python's statistics.quantiles(n=4).
//
// A gain does not count when the change fails more requests or checks,
// so bench_diff also exits 1 when any run of either side failed a
// correctness check, when a change run failed more requests than its
// paired parent run, or when a parent workload or metric has no change
// runs. It prints each such case. Exits 1 on any of these or on a
// regression, 2 on bad input.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace {

namespace fs = std::filesystem;
using pawbench::JsonObject;

// ---- A small JSON reader ---------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* Get(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::string Str(std::string_view key) const {
    const Json* v = Get(key);
    return v != nullptr && v->kind == Kind::kString ? v->string : "";
  }
  double Num(std::string_view key, double fallback = 0) const {
    const Json* v = Get(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  bool Parse(Json* out) {
    if (!Value(out, 0)) return false;
    Skip();
    return i_ == s_.size();
  }

 private:
  void Skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Eat(char c) {
    Skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        c = s_[i_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (i_ + 4 > s_.size()) return false;
            const long code =
                std::strtol(std::string(s_.substr(i_, 4)).c_str(), nullptr, 16);
            i_ += 4;
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: break;  // \" \\ \/
        }
      }
      out->push_back(c);
    }
    return Eat('"');
  }
  bool Value(Json* out, int depth) {
    if (depth > 64) return false;
    Skip();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      out->kind = Json::Kind::kObject;
      if (Eat('}')) return true;
      do {
        std::string key;
        Json value;
        if (!String(&key) || !Eat(':') || !Value(&value, depth + 1)) {
          return false;
        }
        out->object.emplace_back(std::move(key), std::move(value));
      } while (Eat(','));
      return Eat('}');
    }
    if (c == '[') {
      ++i_;
      out->kind = Json::Kind::kArray;
      if (Eat(']')) return true;
      do {
        Json value;
        if (!Value(&value, depth + 1)) return false;
        out->array.push_back(std::move(value));
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->string);
    }
    if (Literal("true") || Literal("false")) {
      out->kind = Json::Kind::kBool;
      out->boolean = s_[i_ - 1] == 'e' && s_[i_ - 2] == 'u';
      return true;
    }
    if (Literal("null")) return true;
    const std::string rest(s_.substr(i_, 64));
    char* end = nullptr;
    out->number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    out->kind = Json::Kind::kNumber;
    i_ += static_cast<size_t>(end - rest.c_str());
    return true;
  }

  std::string_view s_;
  size_t i_ = 0;
};

// ---- Runs ------------------------------------------------------------------

struct Run {
  std::string file;
  std::string workload;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;
  std::string git_sha, build_type;
  int nproc = 0;
  bool correct = false;
  long attempted = 0, failed = 0;
};

/// Every untraced paw_bench result object in the files of `dir`, in
/// file-name order.
bool LoadRuns(const std::string& dir, std::vector<Run>* runs) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "cannot read %s\n", dir.c_str());
    return false;
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("{\"bench\":\"paw_bench\"", 0) != 0) continue;
      Json json;
      if (!JsonParser(line).Parse(&json)) {
        std::fprintf(stderr, "%s: malformed result line\n",
                     path.string().c_str());
        return false;
      }
      const Json* trace = json.Get("trace");
      if (trace != nullptr && trace->boolean) continue;
      Run run;
      run.file = path.string();
      run.workload = json.Str("workload");
      const Json* correct = json.Get("correct");
      run.correct = correct != nullptr && correct->boolean;
      run.attempted = static_cast<long>(json.Num("attempted"));
      run.failed = static_cast<long>(json.Num("failed"));
      run.git_sha = json.Str("git_sha");
      run.build_type = json.Str("build_type");
      run.nproc = static_cast<int>(json.Num("nproc"));
      if (const Json* metrics = json.Get("metrics")) {
        for (const auto& [name, m] : metrics->object) {
          run.metrics[name] = m.Num("value");
          run.units[name] = m.Str("unit");
        }
      }
      runs->push_back(std::move(run));
    }
  }
  return true;
}

// ---- Statistics (Python's statistics module) -------------------------------

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// statistics.quantiles(v, n=4) with the default 'exclusive' method.
std::pair<double, double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) {
    const double x = ld == 1 ? v[0] : 0;
    return {x, x};
  }
  const long n = 4, m = ld + 1;
  double q[2];
  for (long i = 1; i <= 3; i += 2) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    q[i / 2] = (v[static_cast<size_t>(j - 1)] * static_cast<double>(n - delta) +
                v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               static_cast<double>(n);
  }
  return {q[0], q[1]};
}

struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  std::vector<double> values;
};

Summary Summarize(const std::vector<Run>& runs, const std::string& workload,
                  const std::string& metric) {
  Summary s;
  for (const Run& run : runs) {
    if (run.workload != workload) continue;
    auto it = run.metrics.find(metric);
    if (it != run.metrics.end()) s.values.push_back(it->second);
  }
  s.median = MedianOf(s.values);
  std::tie(s.q1, s.q3) = Quartiles(s.values);
  return s;
}

std::vector<std::string> Workloads(const std::vector<Run>& runs) {
  std::vector<std::string> out;
  for (const Run& run : runs) {
    if (std::find(out.begin(), out.end(), run.workload) == out.end()) {
      out.push_back(run.workload);
    }
  }
  return out;
}

int SummaryMode(const std::vector<Run>& runs) {
  JsonObject workloads;
  for (const std::string& w : Workloads(runs)) {
    JsonObject metrics;
    size_t count = 0;
    bool all_correct = true;
    long attempted = 0, failed = 0;
    const Run* first = nullptr;
    for (const Run& run : runs) {
      if (run.workload != w) continue;
      ++count;
      all_correct = all_correct && run.correct;
      attempted += run.attempted;
      failed += run.failed;
      if (first == nullptr) first = &run;
    }
    for (const auto& entry : first->metrics) {
      const std::string& name = entry.first;
      const Summary s = Summarize(runs, w, name);
      metrics.Obj(name, JsonObject()
                            .Num("median", s.median)
                            .Num("q1", s.q1)
                            .Num("q3", s.q3)
                            .Str("unit", first->units.at(name))
                            .Int("runs", static_cast<int64_t>(s.values.size())));
    }
    workloads.Obj(w, JsonObject()
                         .Int("runs", static_cast<int64_t>(count))
                         .Bool("all_correct", all_correct)
                         .Int("attempted", attempted)
                         .Int("failed", failed)
                         .Obj("metrics", metrics));
  }
  const Run& any = runs.front();
  JsonObject out;
  out.Str("bench", "paw_bench")
      .Str("git_sha", any.git_sha)
      .Int("nproc", any.nproc)
      .Str("build_type", any.build_type)
      .Obj("workloads", workloads);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

struct Bound {
  std::string name, unit;
  bool higher_better = false;
  double bound = 0;
};

bool LoadBounds(const std::string& path, std::vector<Bound>* bounds) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  Json json;
  if (!in || !JsonParser(text.str()).Parse(&json)) {
    std::fprintf(stderr, "cannot parse %s\n", path.c_str());
    return false;
  }
  const Json* e2e = json.Get("end_to_end");
  if (e2e == nullptr) return false;
  for (const Json& m : e2e->array) {
    bounds->push_back({m.Str("name"), m.Str("unit"),
                       m.Str("better") == "higher", m.Num("bound")});
  }
  return true;
}

std::vector<const Run*> RunsOf(const std::vector<Run>& runs,
                               const std::string& workload) {
  std::vector<const Run*> out;
  for (const Run& run : runs) {
    if (run.workload == workload) out.push_back(&run);
  }
  return out;
}

/// Prints every reason the change cannot be compared fairly: a run that
/// failed a check, a change run that failed more requests than its
/// paired parent run, a parent workload with no change runs. Returns how
/// many it found.
int ReportProblems(const std::vector<Run>& parent,
                   const std::vector<Run>& change) {
  int problems = 0;
  for (const auto* side : {&parent, &change}) {
    for (const Run& run : *side) {
      if (run.correct) continue;
      std::printf("problem: %s (%s) failed a correctness check\n",
                  run.file.c_str(), run.workload.c_str());
      ++problems;
    }
  }
  for (const std::string& w : Workloads(parent)) {
    const std::vector<const Run*> p = RunsOf(parent, w);
    const std::vector<const Run*> c = RunsOf(change, w);
    if (c.empty()) {
      std::printf("problem: workload %s has no change runs\n", w.c_str());
      ++problems;
      continue;
    }
    for (size_t i = 0; i < std::min(p.size(), c.size()); ++i) {
      if (c[i]->failed <= p[i]->failed) continue;
      std::printf("problem: %s (%s) failed %ld of %ld requests; its parent "
                  "pair %s failed %ld\n",
                  c[i]->file.c_str(), w.c_str(), c[i]->failed,
                  c[i]->attempted, p[i]->file.c_str(), p[i]->failed);
      ++problems;
    }
  }
  return problems;
}

int DiffMode(const std::vector<Run>& parent, const std::vector<Run>& change,
             const std::vector<Bound>& bounds) {
  int problems = ReportProblems(parent, change);
  int regressions = 0;
  std::printf("%-15s %-36s %12s %12s %12s %12s %6s  %s\n", "workload",
              "metric", "parent", "parent_iqr", "change", "change_iqr", "wins",
              "verdict");
  for (const std::string& w : Workloads(parent)) {
    if (RunsOf(change, w).empty()) continue;  // reported above
    for (const Bound& b : bounds) {
      const Summary p = Summarize(parent, w, b.name);
      const Summary c = Summarize(change, w, b.name);
      if (p.values.empty()) continue;
      if (c.values.empty() || c.values.size() < RunsOf(change, w).size()) {
        std::printf("%-15s %-36s %12.6g %12s %12s %12s %6s  missing\n",
                    w.c_str(), (b.name + " (" + b.unit + ")").c_str(),
                    p.median, "", "", "", "");
        ++problems;
        continue;
      }
      const double sign = b.higher_better ? 1 : -1;
      const size_t pairs = std::min(p.values.size(), c.values.size());
      size_t wins = 0;
      for (size_t i = 0; i < pairs; ++i) {
        wins += sign * (c.values[i] - p.values[i]) > 0;
      }
      const double win_frac =
          static_cast<double>(wins) / static_cast<double>(pairs);
      const double gain = sign * (c.median - p.median) /
                          std::max(std::fabs(p.median), 1e-300);
      const double p_iqr = p.q3 - p.q1;
      const double spread = p_iqr / std::max(std::fabs(p.median), 1e-300);
      const auto [c_lo, c_hi] = std::minmax_element(c.values.begin(),
                                                    c.values.end());
      const auto [p_lo, p_hi] = std::minmax_element(p.values.begin(),
                                                    p.values.end());
      const bool all_better = b.higher_better ? *c_lo > *p_hi : *c_hi < *p_lo;
      const bool all_worse = b.higher_better ? *c_hi < *p_lo : *c_lo > *p_hi;
      const bool steady = spread <= b.bound;
      const char* verdict;
      if (gain > 0 && win_frac >= 0.9 &&
          std::fabs(c.median - p.median) > p_iqr && (steady || all_better)) {
        verdict = "improved";
      } else if (gain < -b.bound && (steady || all_worse)) {
        verdict = "regressed";
        ++regressions;
      } else if (!steady && !all_better) {
        verdict = "unresolved";
      } else {
        verdict = "unchanged";
      }
      std::printf("%-15s %-36s %12.6g %12.6g %12.6g %12.6g %5.0f%%  %s\n",
                  w.c_str(), (b.name + " (" + b.unit + ")").c_str(), p.median,
                  p_iqr, c.median, c.q3 - c.q1, win_frac * 100, verdict);
    }
  }
  return regressions > 0 || problems > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> dirs;
  std::string benchmark = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmark=", 0) == 0) {
      benchmark = arg.substr(12);
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty() || dirs.size() > 2) {
    std::fprintf(stderr,
                 "usage: bench_diff PARENT_DIR [CHANGE_DIR] "
                 "[--benchmark=BENCHMARK.json]\n");
    return 2;
  }
  std::vector<Run> parent, change;
  if (!LoadRuns(dirs[0], &parent) ||
      (dirs.size() == 2 && !LoadRuns(dirs[1], &change))) {
    return 2;
  }
  if (parent.empty()) {
    std::fprintf(stderr, "no untraced paw_bench runs in %s\n", dirs[0].c_str());
    return 2;
  }
  if (dirs.size() == 1) return SummaryMode(parent);
  std::vector<Bound> bounds;
  if (!LoadBounds(benchmark, &bounds)) return 2;
  return DiffMode(parent, change, bounds);
}
