#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dht/network.hpp"
#include "dht/store.hpp"
#include "exp/overlays.hpp"
#include "hash/keys.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dht = cycloid::dht;
namespace exp = cycloid::exp;

namespace {

constexpr std::uint64_t kNodes = 1ULL << 12;
constexpr std::size_t kKeys = 1024;
constexpr int kReplicas = 3;
constexpr double kGetShare = 0.9;
constexpr double kZipfExponent = 0.99;
/// Consecutive ops per throughput window.
constexpr std::size_t kWindowOps = 500;

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(cycloid::util::Rng& rng) const {
    const double u = rng.uniform01();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::uint64_t parse_version(const std::optional<std::string>& value) {
  if (!value) return 0;
  std::uint64_t v = 0;
  std::from_chars(value->data(), value->data() + value->size(), v);
  return v;
}

}  // namespace

KvPlan kv_plan(int seconds) {
  // About 25k ops/s on the reference machine (README.md).
  return KvPlan{25000ULL * static_cast<std::uint64_t>(seconds), 5};
}

KvPlan kv_probe_plan() { return KvPlan{20000, 1}; }

WorkloadRun run_kv(const KvPlan& plan, std::uint64_t seed, Tracer& tracer) {
  WorkloadRun run;
  const exp::OverlayKind kind = exp::OverlayKind::kCycloid7;
  const std::uint64_t s = overlay_seed(seed, kind);
  const std::uint32_t get_span = tracer.intern("dht.store.get");
  const std::uint32_t put_span = tracer.intern("dht.store.put");
  const std::uint32_t route_span = tracer.intern("dht.store.get_route");
  const std::uint32_t owner_span = tracer.intern("dht.store.put_owner");

  std::vector<std::string> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys[i] = "key-" + std::to_string(i);

  // Set-up: build the network and preload every key, several times over
  // for a steadier figure; the last copy serves the run.
  std::unique_ptr<dht::DhtNetwork> net;
  std::unique_ptr<dht::DhtStore> store;
  std::vector<double> setup_s;
  double updates_per_join = 0.0;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    store.reset();
    net.reset();
    cycloid::util::Rng preload_rng(s + 1);
    const std::int64_t start = now_ns();
    net = exp::make_sparse_overlay(kind, dimension_for(kNodes),
                                   static_cast<std::size_t>(kNodes), s);
    updates_per_join =
        static_cast<double>(net->maintenance_metrics().total()) /
        static_cast<double>(net->node_count());
    store = std::make_unique<dht::DhtStore>(*net, kReplicas);
    for (std::size_t i = 0; i < kKeys; ++i) {
      store->put(keys[i], std::to_string(i + 1),
                 net->random_node(preload_rng));
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  // Closed loop. Each op is drawn from the benchmark's RNG, then only its
  // store call is timed; the model-map check of a get's value against the
  // value last put runs after the clock stops.
  const Zipf zipf(kKeys, kZipfExponent);
  cycloid::util::Rng rng(s + 2);
  std::vector<std::uint64_t> model(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) model[i] = i + 1;
  std::uint64_t next_version = kKeys + 1;
  std::uint64_t hops = 0;
  std::uint64_t hits = 0;
  std::uint64_t gets = 0;
  std::uint64_t route_failed = 0;
  std::uint64_t hop_limit = 0;
  std::uint64_t wrong = 0;
  dht::LookupMetrics route_sink;
  const dht::RouterOptions route_options;
  std::vector<double> window_rates;
  std::int64_t window_ns = 0;
  std::int64_t timed_ns = 0;
  for (std::uint64_t i = 0; i < plan.ops; ++i) {
    const bool get = rng.uniform01() < kGetShare;
    const std::size_t key = zipf.draw(rng);
    const dht::NodeHandle source = net->random_node(rng);
    const std::uint64_t version = get ? 0 : next_version++;
    std::string value = get ? std::string() : std::to_string(version);

    dht::LookupResult result;
    std::optional<std::string> got;
    const std::int64_t start = now_ns();
    if (get) {
      Scope span(tracer, get_span);
      got = store->get(keys[key], source, &result);
    } else {
      Scope span(tracer, put_span);
      result = store->put(keys[key], std::move(value), source);
    }
    window_ns += now_ns() - start;
    if ((i + 1) % kWindowOps == 0) {
      window_rates.push_back(static_cast<double>(kWindowOps) * 1e9 /
                             static_cast<double>(window_ns));
      timed_ns += window_ns;
      window_ns = 0;
    }

    hops += static_cast<std::uint64_t>(result.hops);
    if (result.status == dht::LookupStatus::kFailed) ++route_failed;
    if (result.status == dht::LookupStatus::kHopLimit) ++hop_limit;
    if (get) {
      ++gets;
      if (got) ++hits;
      if (parse_version(got) != model[key]) ++wrong;
    } else {
      model[key] = version;
    }
    if (!tracer.enabled()) continue;
    // Traced run only: the layer beneath each call, timed on its own.
    const dht::KeyHash h = cycloid::hash::hash_name(keys[key]);
    if (get) {
      Scope span(tracer, route_span);
      net->route(source, h, route_sink, route_options);
    } else {
      Scope span(tracer, owner_span);
      net->owner_of(h);
    }
  }

  const std::uint64_t bad = route_failed + hop_limit + wrong;
  run.attempted = plan.ops;
  run.failed = bad;
  if (bad != 0) {
    run.fail("kv: " + std::to_string(bad) +
             " ops failed to route or returned a stale or missing value");
  }

  const double ops_n = static_cast<double>(plan.ops);
  run.add_end_to_end("setup_s", median_of(setup_s), "s");
  run.add_end_to_end("ops_per_s", window_rate(window_rates), "ops/s");
  run.add_end_to_end("hops_mean", static_cast<double>(hops) / ops_n, "hops");
  run.add_end_to_end("maint_updates_per_event", updates_per_join,
                     "updates/event");
  run.add_end_to_end("ok_share", 1.0 - static_cast<double>(bad) / ops_n,
                     "fraction");
  run.deterministic["hops_mean"] = static_cast<double>(hops) / ops_n;
  run.deterministic["maint_updates_per_event"] = updates_per_join;
  run.deterministic["ok_share"] = run.end_to_end.back().value;
  run.deterministic["failed"] = static_cast<double>(route_failed);
  run.deterministic["hop_limit"] = static_cast<double>(hop_limit);
  run.deterministic["misrouted"] = static_cast<double>(wrong);
  run.deterministic["kv.hits"] = static_cast<double>(hits);

  std::ostringstream details;
  details << "{\"nodes\": " << net->node_count()
          << ", \"replicas\": " << kReplicas << ", \"keys\": " << kKeys
          << ", \"ops\": " << plan.ops << ", \"gets\": " << gets
          << ", \"puts\": " << plan.ops - gets
          << ", \"timed_s\": "
          << json_number(static_cast<double>(timed_ns + window_ns) * 1e-9)
          << ", \"windows\": " << window_rates.size()
          << ", \"setup_reps\": " << setup_s.size() << "}";
  run.details_json = details.str();

  if (!tracer.enabled()) return run;
  const auto totals = tracer.totals();
  const auto mean_us = [&](const std::string& name) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    return it->second.total_s * 1e6 / static_cast<double>(it->second.count);
  };
  run.add_per_layer("dht.store.get_us", mean_us("dht.store.get"), "us");
  run.add_per_layer("dht.store.put_us", mean_us("dht.store.put"), "us");
  run.add_per_layer("dht.store.get_route_us", mean_us("dht.store.get_route"),
                    "us");
  run.add_per_layer("dht.store.put_owner_us", mean_us("dht.store.put_owner"),
                    "us");
  run.add_per_layer("dht.store.hit_share",
                    gets == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(gets),
                    "fraction");
  return run;
}

}  // namespace perfbench
