#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "dht/network.hpp"
#include "exp/overlays.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dht = cycloid::dht;
namespace exp = cycloid::exp;

namespace {

/// Lookups kept in flight by route_batch, and lookups per timed call.
constexpr int kWidth = 8;
constexpr std::size_t kChunk = 256;

struct Rate {
  exp::OverlayKind kind;
  std::uint64_t nodes;
  /// Single-thread W = 8 lookups/s on the reference machine (README.md).
  double lookups_per_s;
};

// Pastry and CAN stay at 2^14: their bulk builds grow as O(n^2) (22.8 s for
// Pastry at 2^15, 16.4 s for CAN at 2^16).
constexpr Rate kRates[] = {
    {exp::OverlayKind::kCycloid7, 1ULL << 17, 78000.0},
    {exp::OverlayKind::kCycloid11, 1ULL << 17, 59000.0},
    {exp::OverlayKind::kViceroy, 1ULL << 17, 8900.0},
    {exp::OverlayKind::kChord, 1ULL << 17, 235000.0},
    {exp::OverlayKind::kKoorde, 1ULL << 17, 87000.0},
    {exp::OverlayKind::kPastry, 1ULL << 14, 425000.0},
    {exp::OverlayKind::kCan, 1ULL << 14, 17300.0},
};

std::uint64_t round_to_chunks(double lookups) {
  const auto chunks = static_cast<std::uint64_t>(
      std::max(1.0, lookups / static_cast<double>(kChunk) + 0.5));
  return chunks * kChunk;
}

}  // namespace

LookupPlan lookup_plan(int seconds) {
  LookupPlan plan;
  const double share = static_cast<double>(seconds) /
                       static_cast<double>(std::size(kRates));
  for (const Rate& r : kRates) {
    plan.cells.push_back(
        {r.kind, r.nodes, round_to_chunks(r.lookups_per_s * share)});
  }
  return plan;
}

LookupPlan lookup_probe_plan() {
  LookupPlan plan;
  for (const Rate& r : kRates) {
    plan.cells.push_back({r.kind, 1ULL << 12, 4 * kChunk});
  }
  return plan;
}

namespace {

/// One overlay's network, inputs and outcomes across the three phases.
struct OverlayRun {
  std::string ov;
  std::unique_ptr<dht::DhtNetwork> net;
  std::vector<dht::NodeHandle> froms;
  std::vector<dht::KeyHash> keys;
  dht::LookupMetrics sink;
  dht::BatchScratch lanes;
  std::vector<dht::NodeHandle> destinations;
  std::vector<dht::LookupStatus> statuses;
  std::vector<std::int64_t> chunk_ns;
  std::uint64_t hop_sum = 0;
  double build_s = 0.0;
  std::uint32_t batch_span = 0;
};

}  // namespace

WorkloadRun run_lookup(const LookupPlan& plan, std::uint64_t seed,
                       Tracer& tracer) {
  WorkloadRun run;
  const dht::RouterOptions options;
  std::vector<dht::LookupResult> results(kChunk);

  // Set-up: build every network, draw its inputs (uniform sources and keys
  // from the benchmark's RNG) and warm it with a separate batch routed
  // through the timed sink, so the sink's dense query-load plane reaches
  // full size before timing starts.
  std::vector<OverlayRun> overlays(plan.cells.size());
  for (std::size_t k = 0; k < plan.cells.size(); ++k) {
    const LookupPlan::Cell& cell = plan.cells[k];
    OverlayRun& o = overlays[k];
    o.ov = overlay_key(cell.kind);
    o.batch_span = tracer.intern("dht.router.batch." + o.ov);
    const std::uint64_t s = overlay_seed(seed, cell.kind);
    const std::int64_t build_start = now_ns();
    {
      Scope span(tracer, tracer.intern("exp.build." + o.ov));
      o.net = exp::make_sparse_overlay(cell.kind, dimension_for(cell.nodes),
                                       static_cast<std::size_t>(cell.nodes),
                                       s);
    }
    o.build_s = static_cast<double>(now_ns() - build_start) * 1e-9;

    const auto count = static_cast<std::size_t>(cell.lookups);
    cycloid::util::Rng rng(s + 1);
    o.froms.resize(count);
    o.keys.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      o.froms[i] = o.net->random_node(rng);
      o.keys[i] = rng();
    }
    const std::size_t warm = std::min<std::size_t>(count, 2048);
    for (std::size_t done = 0; done < warm; done += kChunk) {
      const std::size_t len = std::min(kChunk, warm - done);
      std::vector<dht::NodeHandle> warm_froms(len);
      std::vector<dht::KeyHash> warm_keys(len);
      for (std::size_t i = 0; i < len; ++i) {
        warm_froms[i] = o.net->random_node(rng);
        warm_keys[i] = rng();
      }
      o.net->route_batch(warm_froms.data(), warm_keys.data(), len, kWidth,
                         o.sink, results.data(), o.lanes, options);
    }
    o.destinations.resize(count);
    o.statuses.resize(count);
  }

  // Timed region: route_batch over fixed-size chunks. The overlays take
  // turns in kRounds slices, so every overlay is measured across the whole
  // run rather than in one stretch of it. Each chunk's outcomes are copied
  // out after its clock stops.
  constexpr std::size_t kRounds = 8;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (OverlayRun& o : overlays) {
      const std::size_t chunks = o.froms.size() / kChunk;
      const std::size_t first = chunks * round / kRounds;
      const std::size_t last = chunks * (round + 1) / kRounds;
      for (std::size_t c = first; c < last; ++c) {
        const std::size_t off = c * kChunk;
        const std::int64_t start = now_ns();
        {
          Scope span(tracer, o.batch_span);
          o.net->route_batch(o.froms.data() + off, o.keys.data() + off,
                             kChunk, kWidth, o.sink, results.data(), o.lanes,
                             options);
        }
        o.chunk_ns.push_back(now_ns() - start);
        for (std::size_t i = 0; i < kChunk; ++i) {
          o.destinations[off + i] = results[i].destination;
          o.statuses[off + i] = results[i].status;
          o.hop_sum += static_cast<std::uint64_t>(results[i].hops);
        }
      }
    }
  }

  std::vector<double> build_s;
  std::vector<double> rates;
  std::vector<double> hops;
  std::vector<double> updates_per_join;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t hop_limit = 0;
  std::uint64_t misrouted = 0;
  std::ostringstream details;
  details << "[";
  for (OverlayRun& o : overlays) {
    const std::size_t count = o.froms.size();
    attempted += count;
    std::vector<double> chunk_rates;
    std::int64_t timed_ns = 0;
    for (const std::int64_t ns : o.chunk_ns) {
      timed_ns += ns;
      chunk_rates.push_back(kChunk * 1e9 / static_cast<double>(ns));
    }
    const double mean_path =
        static_cast<double>(o.hop_sum) / static_cast<double>(count);
    build_s.push_back(o.build_s);
    updates_per_join.push_back(
        static_cast<double>(o.net->maintenance_metrics().total()) /
        static_cast<double>(o.net->node_count()));
    rates.push_back(window_rate(chunk_rates));
    hops.push_back(mean_path);

    // Untimed oracle check of every destination.
    const std::uint32_t owner_span = tracer.intern("exp.owner_of." + o.ov);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (o.statuses[i] == dht::LookupStatus::kFailed) {
        ++failed;
        ++bad;
      } else if (o.statuses[i] == dht::LookupStatus::kHopLimit) {
        ++hop_limit;
        ++bad;
      } else {
        dht::NodeHandle owner;
        {
          Scope span(tracer, owner_span);
          owner = o.net->owner_of(o.keys[i]);
        }
        if (o.destinations[i] != owner) {
          ++misrouted;
          ++bad;
        }
      }
    }

    run.deterministic["lookup." + o.ov + ".hops"] =
        static_cast<double>(o.hop_sum);
    run.deterministic["lookup." + o.ov + ".build_updates"] =
        static_cast<double>(o.net->maintenance_metrics().total());
    details << (details.tellp() > 1 ? ", " : "") << "{\"overlay\": "
            << json_string(o.ov) << ", \"nodes\": " << o.net->node_count()
            << ", \"lookups\": " << count
            << ", \"build_s\": " << json_number(o.build_s)
            << ", \"timed_s\": "
            << json_number(static_cast<double>(timed_ns) * 1e-9)
            << ", \"lookups_per_s\": " << json_number(rates.back())
            << ", \"wall_lookups_per_s\": "
            << json_number(static_cast<double>(count) * 1e9 /
                           static_cast<double>(timed_ns))
            << ", \"chunks\": " << o.chunk_ns.size()
            << ", \"mean_path\": " << json_number(mean_path)
            << ", \"bad\": " << bad << "}";

    if (!tracer.enabled()) continue;

    // Lane gain: the first quarter of the batch again at W = 1, against
    // the W = 8 time of the same lookups.
    const std::size_t prefix_chunks =
        std::max<std::size_t>(1, o.chunk_ns.size() / 4);
    std::int64_t w8_ns = 0;
    std::int64_t w1_ns = 0;
    const std::uint32_t w1_span = tracer.intern("dht.router.batch_w1." + o.ov);
    for (std::size_t c = 0; c < prefix_chunks; ++c) {
      w8_ns += o.chunk_ns[c];
      const std::int64_t start = now_ns();
      {
        Scope span(tracer, w1_span);
        o.net->route_batch(o.froms.data() + c * kChunk,
                           o.keys.data() + c * kChunk, kChunk, 1, o.sink,
                           results.data(), o.lanes, options);
      }
      w1_ns += now_ns() - start;
    }
    {
      Scope span(tracer, tracer.intern("dht.maintenance.pass." + o.ov));
      o.net->stabilize_all(1);
    }

    const auto totals = tracer.totals();
    const auto total_of = [&](const std::string& name) {
      const auto it = totals.find(name);
      return it == totals.end() ? Tracer::Totals{} : it->second;
    };
    const Tracer::Totals owner = total_of("exp.owner_of." + o.ov);
    run.add_per_layer("exp.build_s." + o.ov,
                      total_of("exp.build." + o.ov).total_s, "s");
    run.add_per_layer("dht.maintenance.pass_s." + o.ov,
                      total_of("dht.maintenance.pass." + o.ov).total_s, "s");
    run.add_per_layer("dht.router.ns_per_hop." + o.ov,
                      total_of("dht.router.batch." + o.ov).total_s * 1e9 /
                          static_cast<double>(o.hop_sum),
                      "ns");
    run.add_per_layer("dht.router.lane_gain." + o.ov,
                      static_cast<double>(w1_ns) / static_cast<double>(w8_ns),
                      "x");
    run.add_per_layer("dht.router.hops." + o.ov, mean_path, "hops");
    run.add_per_layer("exp.owner_of_us." + o.ov,
                      owner.count == 0
                          ? 0.0
                          : owner.total_s * 1e6 /
                                static_cast<double>(owner.count),
                      "us");
  }
  details << "]";
  run.details_json = details.str();

  const std::uint64_t bad = failed + hop_limit + misrouted;
  run.attempted = attempted;
  run.failed = bad;
  if (bad != 0) {
    run.fail("lookup: " + std::to_string(bad) +
             " lookups failed or were misrouted");
  }
  run.deterministic["failed"] = static_cast<double>(failed);
  run.deterministic["hop_limit"] = static_cast<double>(hop_limit);
  run.deterministic["misrouted"] = static_cast<double>(misrouted);

  double setup_total = 0.0;
  for (const double v : build_s) setup_total += v;
  run.add_end_to_end("setup_s", setup_total, "s");
  run.add_end_to_end("ops_per_s", geomean_of(rates), "ops/s");
  run.add_end_to_end("hops_mean", mean_of(hops), "hops");
  run.add_end_to_end("maint_updates_per_event", mean_of(updates_per_join),
                     "updates/event");
  run.add_end_to_end("ok_share",
                     1.0 - static_cast<double>(bad) /
                               static_cast<double>(attempted),
                     "fraction");
  run.deterministic["hops_mean"] = mean_of(hops);
  run.deterministic["maint_updates_per_event"] = mean_of(updates_per_join);
  run.deterministic["ok_share"] = run.end_to_end.back().value;
  return run;
}

}  // namespace perfbench
