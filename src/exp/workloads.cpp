#include "exp/workloads.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "hash/keys.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace cycloid::exp {

double WorkloadStats::phase_fraction(std::size_t i) const {
  CYCLOID_EXPECTS(i < dht::kMaxPhases);
  return metrics.hops == 0
             ? 0.0
             : static_cast<double>(metrics.phase_hops[i]) /
                   static_cast<double>(metrics.hops);
}

void WorkloadStats::note(const dht::LookupResult& result, bool correct) {
  ++lookups;
  path_length.add(result.hops);
  timeouts.add(result.timeouts);
  if (!result.success) {
    ++failures;
  } else if (!correct) {
    ++incorrect;
  }
}

void WorkloadStats::merge(const WorkloadStats& other) {
  lookups += other.lookups;
  failures += other.failures;
  incorrect += other.incorrect;
  path_length.merge(other.path_length);
  timeouts.merge(other.timeouts);
  route_latency.merge(other.route_latency);
  metrics.merge(other.metrics);
  if (phase_names.empty()) phase_names = other.phase_names;
}

namespace {

/// Reusable buffers of the lookup loop: pre-drawn inputs, the batch's
/// results, and the router's lane scratch. One per worker, so steady-state
/// chunks allocate nothing.
struct LoopScratch {
  std::vector<dht::NodeHandle> sources;
  std::vector<dht::KeyHash> keys;
  std::vector<dht::LookupResult> results;
  dht::BatchScratch lanes;
};

/// The lookup loop every workload runner shares: `count` lookups drawn
/// from `rng` into `out`, in chunks of at most kLookupShardSize. Each chunk
/// pre-draws its sources and keys in the fixed order (source, key, source,
/// key, ...), so the RNG stream does not depend on `width`; routes them
/// through route_batch with up to `width` in flight; then notes them in
/// input order. route_batch guarantees the per-lookup results and sink
/// writes are the same at every width.
void run_into(const dht::DhtNetwork& net, std::uint64_t count, util::Rng& rng,
              bool check_owner, int width, WorkloadStats& out,
              LoopScratch& scratch) {
  for (std::uint64_t begin = 0; begin < count; begin += kLookupShardSize) {
    const auto n =
        static_cast<std::size_t>(std::min(kLookupShardSize, count - begin));
    scratch.sources.resize(n);
    scratch.keys.resize(n);
    scratch.results.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scratch.sources[i] = net.random_node(rng);
      scratch.keys[i] = rng();
    }
    net.route_batch(scratch.sources.data(), scratch.keys.data(), n, width,
                    out.metrics, scratch.results.data(), scratch.lanes,
                    dht::RouterOptions{});
    for (std::size_t i = 0; i < n; ++i) {
      const dht::LookupResult& result = scratch.results[i];
      out.note(result, !check_owner || !result.success ||
                           result.destination == net.owner_of(scratch.keys[i]));
    }
  }
}

}  // namespace

WorkloadStats run_random_lookups(const dht::DhtNetwork& net,
                                 std::uint64_t count, util::Rng& rng,
                                 bool check_owner) {
  WorkloadStats out;
  out.phase_names = net.phase_names();
  LoopScratch scratch;
  run_into(net, count, rng, check_owner, kDefaultLookupWidth, out, scratch);
  return out;
}

WorkloadStats run_lookup_batch(const dht::DhtNetwork& net, std::uint64_t count,
                               std::uint64_t seed, int threads,
                               bool check_owner, int width) {
  const std::uint64_t shards =
      count == 0 ? 0 : (count + kLookupShardSize - 1) / kLookupShardSize;
  std::vector<WorkloadStats> parts(static_cast<std::size_t>(shards));

  util::parallel_for(static_cast<std::size_t>(shards), threads,
                     [&](std::size_t s) {
    const std::uint64_t begin = static_cast<std::uint64_t>(s) * kLookupShardSize;
    const std::uint64_t n = std::min(kLookupShardSize, count - begin);
    // Per-shard stream: decorrelate the shard index into a full 64-bit
    // seed (splitmix64-style), so streams never overlap in practice.
    util::Rng rng(util::mix64(seed ^ ((s + 1) * 0x9e3779b97f4a7c15ULL)));
    // Per-shard scratch, never shared (DESIGN.md §8). Results do not
    // depend on scratch reuse or width.
    LoopScratch scratch;
    run_into(net, n, rng, check_owner, width, parts[s], scratch);
  });

  WorkloadStats out;
  out.phase_names = net.phase_names();
  for (const WorkloadStats& part : parts) out.merge(part);
  return out;
}

double RouteSample::latency() const {
  double total = 0.0;
  for (const dht::TraceStep& step : trace) total += step.latency;
  return total;
}

std::vector<RouteSample> sample_routes(const dht::DhtNetwork& net,
                                       std::uint64_t count,
                                       std::uint64_t seed) {
  util::Rng rng(util::mix64(seed));
  std::vector<RouteSample> samples(static_cast<std::size_t>(count));
  for (RouteSample& sample : samples) {
    sample.source = net.random_node(rng);
    sample.key = rng();
    dht::LookupMetrics sink;
    dht::RouterOptions options;
    options.trace = &sample.trace;
    sample.result = net.route(sample.source, sample.key, sink, options);
  }
  return samples;
}

stats::Summary key_distribution(const dht::DhtNetwork& net,
                                std::uint64_t key_count) {
  std::unordered_map<dht::NodeHandle, std::uint64_t> counts;
  for (std::uint64_t i = 0; i < key_count; ++i) {
    ++counts[net.owner_of(hash::hash_index(i))];
  }
  stats::Summary per_node;
  for (const dht::NodeHandle handle : net.node_handles()) {
    const auto it = counts.find(handle);
    per_node.add_count(it == counts.end() ? 0 : it->second);
  }
  return per_node;
}

stats::Summary query_load_distribution(const dht::DhtNetwork& net,
                                       std::uint64_t count, util::Rng& rng) {
  const WorkloadStats s = run_random_lookups(net, count, rng, false);
  stats::Summary loads;
  for (const std::uint64_t load : s.metrics.query_load_vector(net)) {
    loads.add_count(load);
  }
  return loads;
}

}  // namespace cycloid::exp
