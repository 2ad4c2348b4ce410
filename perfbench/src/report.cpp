#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

extern char** environ;

namespace perfbench {

using cycloid::exp::OverlayKind;

std::string overlay_key(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::kCycloid7: return "cycloid7";
    case OverlayKind::kCycloid11: return "cycloid11";
    case OverlayKind::kViceroy: return "viceroy";
    case OverlayKind::kChord: return "chord";
    case OverlayKind::kKoorde: return "koorde";
    case OverlayKind::kPastry: return "pastry";
    case OverlayKind::kCan: return "can";
  }
  return "unknown";
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double median_of(std::vector<double> values) { return quantile(values, 0.5); }

double window_rate(std::vector<double> rates) { return quantile(rates, 0.9); }

double metric_value(const std::vector<Metric>& metrics,
                    const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("perfbench: no metric " + name);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int dimension_for(std::uint64_t nodes) {
  int d = 3;
  while (static_cast<std::uint64_t>(d) * (1ULL << d) < nodes) ++d;
  return d;
}

std::uint64_t overlay_seed(std::uint64_t seed, OverlayKind kind) {
  return cycloid::util::mix64(seed ^ (0x9e3779b97f4a7c15ULL *
                                      (static_cast<std::uint64_t>(kind) + 1)));
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string provenance_json(const Invocation& inv, std::uint64_t runs) {
  std::ostringstream out;
  out << "{\"git_sha\": " << json_string(inv.git_sha)
      << ", \"git_dirty\": " << json_string(inv.git_dirty)
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"flags\": " << json_string(PERFBENCH_FLAGS)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"workload\": " << json_string(inv.workload)
      << ", \"seed\": " << inv.seed << ", \"seconds\": " << inv.seconds
      << ", \"trace\": " << (inv.trace ? "true" : "false")
      << ", \"runs\": " << runs
      << ", \"threads\": 1, \"interleave\": 8";
  // Every CYCLOID_BENCH_* knob in the environment. The benchmark itself
  // reads none of them (its settings are the fields above), so a value
  // here documents the shell, not the measurement.
  out << ", \"knobs\": {";
  bool first = true;
  for (char** env = environ; *env != nullptr; ++env) {
    const char* entry = *env;
    if (std::strncmp(entry, "CYCLOID_BENCH_", 14) != 0) continue;
    const char* eq = std::strchr(entry, '=');
    if (eq == nullptr) continue;
    out << (first ? "" : ", ")
        << json_string(std::string(entry, static_cast<std::size_t>(
                                              eq - entry)))
        << ": " << json_string(eq + 1);
    first = false;
  }
  out << "}";
  // The benchmark reads no hardware counters (perf_event_open needs
  // privileges it does not assume), so the block records them as n/a.
  out << ", \"hardware_counters\": {\"cycles\": \"n/a\", \"instructions\": "
         "\"n/a\", \"cache_misses\": \"n/a\"}}";
  return out.str();
}

}  // namespace perfbench
