// Result model, statistics helpers and output for the benchmark driver.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/overlays.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produces.
struct WorkloadRun {
  /// False when any correctness check failed; `problems` says which.
  bool correct = true;
  std::vector<std::string> problems;
  /// Operations the workload issued and how many of them came out wrong.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Filled only when the run was traced.
  std::vector<Metric> per_layer;
  /// Seed-determined quantities (path lengths, timeouts, maintenance and
  /// failure counts). A traced and an untraced run on one seed must agree
  /// on every entry exactly.
  std::map<std::string, double> deterministic;
  /// Per-overlay or per-cell detail for the output document (JSON object).
  std::string details_json;

  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
  void add_end_to_end(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void add_per_layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Short metric-name key of an overlay ("cycloid7", "chord", ...).
std::string overlay_key(cycloid::exp::OverlayKind kind);

/// Linear-interpolated quantile, q in [0, 1]. Sorts `values`.
double quantile(std::vector<double>& values, double q);
double mean_of(const std::vector<double>& values);
double geomean_of(const std::vector<double>& values);
double median_of(std::vector<double> values);
/// The throughput a run reports from its per-window rates: their 90th
/// percentile. Other tenants of a shared host slow some windows of every
/// run, by a share that changes from run to run; the fastest tenth are the
/// windows they left alone (README.md, "Noise").
double window_rate(std::vector<double> rates);
/// Value of the end-to-end metric `name` (it must exist).
double metric_value(const std::vector<Metric>& metrics,
                    const std::string& name);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Smallest Cycloid dimension whose d * 2^d identifier space holds `nodes`.
int dimension_for(std::uint64_t nodes);

/// Per-overlay seed derived from the workload seed.
std::uint64_t overlay_seed(std::uint64_t seed, cycloid::exp::OverlayKind kind);

/// JSON text of a number with every significant digit.
std::string json_number(double value);
/// JSON string literal.
std::string json_string(const std::string& text);

struct Invocation {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string git_sha;
  std::string git_dirty;
};

/// The provenance block of every output document.
std::string provenance_json(const Invocation& inv, std::uint64_t runs);

}  // namespace perfbench
