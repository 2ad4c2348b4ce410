// perfbench — the repository benchmark driver.
//
//   perfbench --workload lookup|kv|churn --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--git-dirty yes|no|unknown]
//             [--document PATH]
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics.
// --trace 1 runs it twice on the same seed, untraced then traced, checks
// that both agree on every seed-determined quantity, reports the traced
// run's per-layer metrics and the tracing overhead, and fills the
// per-layer families it does not own from reduced-size traced probes of
// the other workloads. The last line of standard output is the result
// object; the full document (provenance, metrics, per-overlay detail) goes
// to --document when given. Exit status: 0 when every correctness check
// passed, 1 when one failed, 2 on bad arguments.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const std::vector<std::string> kWorkloads = {"lookup", "kv", "churn"};

WorkloadRun run_workload(const std::string& name, std::uint64_t seed,
                         int seconds, Tracer& tracer) {
  if (name == "lookup") return run_lookup(lookup_plan(seconds), seed, tracer);
  if (name == "kv") return run_kv(kv_plan(seconds), seed, tracer);
  return run_churn(churn_plan(seconds), seed, tracer);
}

WorkloadRun run_probe(const std::string& name, std::uint64_t seed,
                      Tracer& tracer) {
  if (name == "lookup") return run_lookup(lookup_probe_plan(), seed, tracer);
  if (name == "kv") return run_kv(kv_probe_plan(), seed, tracer);
  return run_churn(churn_probe_plan(), seed, tracer);
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 19) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload lookup|kv|churn --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] [--git-dirty X] "
               "[--document PATH]\n";
  return 2;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Invocation inv;
  inv.git_sha = "unknown";
  inv.git_dirty = "unknown";
  std::string document_path;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      inv.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, number)) return usage("bad --seed " + value);
      inv.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, number) || number < 1 || number > 600) {
        return usage("bad --seconds " + value);
      }
      inv.seconds = static_cast<int>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      inv.trace = value == "1";
      have_trace = true;
    } else if (flag == "--git-sha") {
      inv.git_sha = value;
    } else if (flag == "--git-dirty") {
      inv.git_dirty = value;
    } else if (flag == "--document") {
      document_path = value;
    } else {
      return usage("unknown option " + flag);
    }
  }
  bool known = false;
  for (const auto& w : kWorkloads) known = known || w == inv.workload;
  if (!known) return usage("unknown workload '" + inv.workload + "'");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  // The untraced run gives the end-to-end numbers (and, when tracing, the
  // baseline the traced run must reproduce).
  Tracer off;
  WorkloadRun base = run_workload(inv.workload, inv.seed, inv.seconds, off);
  std::vector<Metric> metrics;
  std::vector<std::string> problems = base.problems;
  std::uint64_t runs = 1;
  if (!inv.trace) {
    metrics = base.end_to_end;
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    Tracer tracer(true);
    const WorkloadRun traced =
        run_workload(inv.workload, inv.seed, inv.seconds, tracer);
    ++runs;
    problems.insert(problems.end(), traced.problems.begin(),
                    traced.problems.end());
    if (traced.deterministic != base.deterministic) {
      problems.push_back("traced run diverged from the untraced run");
    }
    if (tracer.nesting_violations() != 0) {
      problems.push_back("traced run: a child span left its parent");
    }
    metrics = traced.per_layer;
    metrics.push_back(
        {"trace.overhead_share",
         metric_value(base.end_to_end, "ops_per_s") /
                 metric_value(traced.end_to_end, "ops_per_s") -
             1.0,
         "fraction"});
    metrics.push_back(
        {"dht.router.failed", traced.deterministic.at("failed"), "count"});
    metrics.push_back({"dht.router.hop_limit",
                       traced.deterministic.at("hop_limit"), "count"});
    metrics.push_back(
        {"exp.misrouted", traced.deterministic.at("misrouted"), "count"});
    for (const std::string& other : kWorkloads) {
      if (other == inv.workload) continue;
      Tracer probe_tracer(true);
      const WorkloadRun probe = run_probe(other, inv.seed, probe_tracer);
      ++runs;
      problems.insert(problems.end(), probe.problems.begin(),
                      probe.problems.end());
      if (probe_tracer.nesting_violations() != 0) {
        problems.push_back(other + " probe: a child span left its parent");
      }
      metrics.insert(metrics.end(), probe.per_layer.begin(),
                     probe.per_layer.end());
    }
  }
  const bool correct = problems.empty();

  // Human-readable table.
  std::cout << "perfbench " << inv.workload << " seed=" << inv.seed
            << " seconds=" << inv.seconds << " trace=" << inv.trace << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  for (const std::string& p : problems) std::cout << "  FAILED: " << p << "\n";

  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << base.attempted
         << ", \"failed\": " << base.failed
         << ", \"metrics\": " << metrics_json(metrics) << "}";

  if (!document_path.empty()) {
    std::ofstream doc(document_path);
    doc << "{\"provenance\": " << provenance_json(inv, runs)
        << ",\n \"correct\": " << (correct ? "true" : "false")
        << ",\n \"problems\": [";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      doc << (i == 0 ? "" : ", ") << json_string(problems[i]);
    }
    doc << "],\n \"attempted\": " << base.attempted
        << ",\n \"failed\": " << base.failed
        << ",\n \"metrics\": " << metrics_json(metrics)
        << ",\n \"details\": " << base.details_json << "}\n";
    if (!doc) std::cerr << "perfbench: cannot write " << document_path << "\n";
  }
  std::cout << "provenance: " << provenance_json(inv, runs) << "\n";
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}
