#ifndef PAWBENCH_BENCH_UTIL_H_
#define PAWBENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// \brief Helpers of paw_bench and bench_diff: a JSON object emitter,
/// scratch directories, nearest-rank percentiles that carry their sample
/// count, and METRICS snapshots with counter and histogram deltas.
/// Header-only.
///
/// bench/bench_server.cc and bench/bench_store.cc keep their own copies
/// of FreshDir, Percentile, FetchMetrics and CounterDelta; moving them
/// onto this header is a change to those files, outside this directory.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/client/paw_client.h"
#include "src/common/metrics.h"
#include "src/common/status.h"

namespace pawbench {

/// \brief Builds one JSON object, keys in insertion order. Numbers are
/// printed with every significant digit; non-finite numbers become null.
class JsonObject {
 public:
  JsonObject& Str(std::string_view key, std::string_view value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Num(std::string_view key, double value) {
    if (!std::isfinite(value)) return Raw(key, "null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Int(std::string_view key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(std::string_view key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Obj(std::string_view key, const JsonObject& value) {
    return Raw(key, value.str());
  }
  JsonObject& Raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "" : ",";
    body_ += Quote(key);
    body_ += ":";
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// \brief Empties (or creates) `dir` and returns it.
inline std::string FreshDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// \brief Total size in bytes of the regular files under `dir`.
inline uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// \brief A percentile together with the number of samples it rests on.
struct Percentile {
  double value = 0;
  size_t count = 0;
};

/// \brief Nearest-rank percentile (`p` in (0, 1]): the smallest sample
/// with at least p·n samples at or below it. Sorts `values`.
inline Percentile NearestRank(std::vector<double>* values, double p) {
  Percentile out;
  out.count = values->size();
  if (values->empty()) return out;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(p * static_cast<double>(values->size()));
  const size_t index = std::min(
      values->size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  out.value = (*values)[index];
  return out;
}

inline double Median(std::vector<double> values) {
  return NearestRank(&values, 0.5).value;
}

/// \brief One METRICS round trip on a throwaway connection.
inline paw::Result<paw::MetricsSnapshot> FetchMetrics(
    int port, const std::string& principal) {
  auto client = paw::PawClient::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  PAW_RETURN_NOT_OK(client.value().Auth(principal));
  auto resp = client.value().Metrics();
  if (!resp.ok()) return resp.status();
  return std::move(resp.value().snapshot);
}

/// \brief Growth of the counters whose names start with `prefix`.
inline uint64_t CounterDelta(const paw::MetricsSnapshot& pre,
                             const paw::MetricsSnapshot& post,
                             std::string_view prefix) {
  return post.SumCounters(prefix) - pre.SumCounters(prefix);
}

/// \brief Value of the gauge `name` in `snap` (0 when absent).
inline int64_t GaugeValue(const paw::MetricsSnapshot& snap,
                          std::string_view name) {
  const paw::MetricSample* s = snap.Find(name);
  return s != nullptr ? s->gauge : 0;
}

/// \brief Observations made between `pre` and `post` in the histograms
/// whose names start with `prefix`, merged into one histogram. Merged
/// histograms must share a bucket layout (a labeled family does).
inline paw::HistogramData HistogramDelta(const paw::MetricsSnapshot& pre,
                                         const paw::MetricsSnapshot& post,
                                         std::string_view prefix) {
  paw::HistogramData out;
  for (const paw::MetricSample& s : post.samples) {
    if (s.kind != paw::MetricSample::Kind::kHistogram ||
        s.name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const paw::MetricSample* before = pre.Find(s.name);
    if (out.bounds.empty()) {
      out.bounds = s.histogram.bounds;
      out.buckets.assign(s.histogram.buckets.size(), 0);
    }
    if (s.histogram.buckets.size() != out.buckets.size()) continue;
    for (size_t i = 0; i < out.buckets.size(); ++i) {
      const uint64_t was =
          before != nullptr && i < before->histogram.buckets.size()
              ? before->histogram.buckets[i]
              : 0;
      out.buckets[i] += s.histogram.buckets[i] - was;
    }
    out.count += s.histogram.count -
                 (before != nullptr ? before->histogram.count : 0);
    out.sum += s.histogram.sum - (before != nullptr ? before->histogram.sum : 0);
  }
  return out;
}

}  // namespace pawbench

#endif  // PAWBENCH_BENCH_UTIL_H_
