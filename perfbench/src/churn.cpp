#include "churn.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "dht/network.hpp"
#include "exp/overlays.hpp"
#include "report.hpp"
#include "sim/event_queue.hpp"
#include "sim/poisson.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"
#include "viceroy/viceroy.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dht = cycloid::dht;
namespace exp = cycloid::exp;
namespace sim = cycloid::sim;
namespace util = cycloid::util;

std::uint64_t churn_cell_seed(std::uint64_t seed, exp::OverlayKind kind,
                              double rate) {
  // Same derivation as the library driver's cell_seed.
  const auto a = static_cast<std::uint64_t>(kind);
  const auto b = static_cast<std::uint64_t>(rate * 1000.0);
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b << 32);
  return util::splitmix64(s);
}

namespace {

constexpr double kWindowSeconds = 60.0;

/// Span names of one overlay's churn calls.
struct ChurnSpans {
  std::uint32_t run;
  std::uint32_t route;
  std::uint32_t join;
  std::uint32_t leave;
  std::uint32_t refresh;
  std::uint32_t drain;
};

ChurnSpans intern_spans(Tracer& tracer, exp::OverlayKind kind) {
  const std::string ov = overlay_key(kind);
  return ChurnSpans{tracer.intern("sim.run_until"),
                    tracer.intern("dht.router.seq_route." + ov),
                    tracer.intern("dht.maintenance.join." + ov),
                    tracer.intern("dht.maintenance.leave." + ov),
                    tracer.intern("dht.maintenance.refresh." + ov),
                    tracer.intern("dht.maintenance.drain." + ov)};
}

}  // namespace

namespace {

/// One fig. 12 cell as a steppable simulation: the constructor builds the
/// network and arms every process exactly as the library driver does;
/// advance() runs the event queue up to a virtual time, so several cells
/// can take turns; finish() stops the processes and fills the row.
/// Stepping does not change the result: run_until executes every event
/// due by the horizon, and only events schedule events.
class ChurnSim {
 public:
  ChurnSim(const ChurnCellSpec& spec, const ChurnHooks& hooks)
      : spec_(spec),
        hooks_(hooks),
        tracer_(hooks.tracer != nullptr && hooks.tracer->enabled()
                    ? *hooks.tracer
                    : disabled_),
        spans_(intern_spans(tracer_, spec.kind)) {
    const std::uint64_t s = churn_cell_seed(spec.seed, spec.kind, spec.rate);
    const std::int64_t build_start = now_ns();
    net_ = exp::make_dense_overlay(spec.kind, spec.dimension, s);
    cell_.build_s = static_cast<double>(now_ns() - build_start) * 1e-9;
    initial_size_ = net_->node_count();
    if (auto* v = dynamic_cast<cycloid::viceroy::ViceroyNetwork*>(net_.get())) {
      v->enable_maintenance_accounting(true);
    }
    net_->reset_maintenance();
    incremental_ = spec.mode == exp::StabilizeMode::kIncremental;
    if (incremental_) net_->set_dirty_tracking(true);
    rng_.reseed(s + 1);
    arm();
  }
  ChurnSim(const ChurnSim&) = delete;
  ChurnSim& operator=(const ChurnSim&) = delete;

  /// Run every event due by virtual time `horizon`, as one rate window.
  void advance(double horizon) {
    const std::int64_t start = now_ns();
    std::uint64_t executed;
    {
      Scope span(tracer_, spans_.run);
      executed = queue_.run_until(horizon);
    }
    const std::int64_t elapsed = now_ns() - start;
    cell_.events += executed;
    cell_.run_s += static_cast<double>(elapsed) * 1e-9;
    if (executed != 0) {
      cell_.window_rates.push_back(static_cast<double>(executed) * 1e9 /
                                   static_cast<double>(elapsed));
    }
  }

  ChurnCell finish() {
    lookup_proc_->stop();
    if (join_proc_) join_proc_->stop();
    if (leave_proc_) leave_proc_->stop();
    if (drain_proc_) drain_proc_->stop();
    exp::ChurnRow& row = cell_.row;
    row.kind = spec_.kind;
    row.join_leave_rate = spec_.rate;
    row.lookups = cell_.lookups;
    const bool any = cell_.lookups != 0;
    row.mean_path = any ? path_length_.mean() : 0.0;
    row.mean_timeouts = any ? timeouts_.mean() : 0.0;
    row.timeouts_p1 = any ? timeouts_.p1() : 0.0;
    row.timeouts_p99 = any ? timeouts_.p99() : 0.0;
    row.failures = cell_.failed + cell_.hop_limit + cell_.misrouted;
    row.final_size = net_->node_count();
    row.maintenance_total = net_->maintenance_metrics().total();
    row.maintenance_by_cause = net_->maintenance_metrics().by_cause();
    row.nodes_refreshed_dirty = net_->nodes_refreshed_dirty();
    row.nodes_skipped_clean = net_->nodes_skipped_clean();
    row.mean_route_latency = any ? route_latency_.mean() : 0.0;
    row.route_latency_p99 = any ? route_latency_.p99() : 0.0;
    return std::move(cell_);
  }

 private:
  /// kIncremental replaces the per-node timers with one periodic drain but
  /// still draws every phase, so both modes consume the same RNG stream.
  void arm_stabilizer(dht::NodeHandle h, double phase) {
    if (incremental_) return;
    queue_.schedule_in(phase, [stabilizer = stabilizer_, h] {
      (*stabilizer)(h);
    });
  }

  void arm() {
    const double period = spec_.stabilize_period;
    // Per-node stabilization timers, as in the library driver: the stored
    // closure holds itself only weakly; stabilizer_ is the strong owner.
    *stabilizer_ = [this, period,
                    weak = std::weak_ptr(stabilizer_)](dht::NodeHandle h) {
      if (!net_->contains(h)) return;
      {
        Scope span(tracer_, spans_.refresh);
        net_->stabilize_one(h);
      }
      ++cell_.refreshes;
      queue_.schedule_in(period, [weak, h] {
        if (const auto self = weak.lock()) (*self)(h);
      });
    };
    for (const dht::NodeHandle h : net_->node_handles()) {
      arm_stabilizer(h, rng_.uniform01() * period);
    }
    if (incremental_) {
      drain_proc_ = sim::PeriodicProcess::start(queue_, period, period, [this] {
        {
          Scope span(tracer_, spans_.drain);
          net_->stabilize_dirty();
        }
        ++cell_.drains;
      });
    }
    lookup_options_.price_links = true;
    lookup_proc_ =
        sim::PoissonProcess::start(queue_, rng_, 1.0, [this] { lookup(); });
    if (spec_.rate <= 0.0) return;
    join_proc_ = sim::PoissonProcess::start(queue_, rng_, spec_.rate, [this] {
      for (int attempt = 0; attempt < 16; ++attempt) {
        dht::NodeHandle h;
        {
          Scope span(tracer_, spans_.join);
          h = net_->join(rng_());
        }
        if (h != dht::kNoNode) {
          ++cell_.joins;
          arm_stabilizer(h, rng_.uniform01() * spec_.stabilize_period);
          return;
        }
      }
    });
    leave_proc_ = sim::PoissonProcess::start(queue_, rng_, spec_.rate, [this] {
      if (net_->node_count() <= initial_size_ / 2) return;
      const dht::NodeHandle victim = net_->random_node(rng_);
      {
        Scope span(tracer_, spans_.leave);
        net_->leave(victim);
      }
      ++cell_.leaves;
    });
  }

  void lookup() {
    const dht::NodeHandle source = net_->random_node(rng_);
    const dht::KeyHash key = rng_();
    dht::LookupResult result;
    {
      Scope span(tracer_, spans_.route);
      dht::LookupMetrics sink;
      result = net_->route(source, key, sink, lookup_options_);
      net_->absorb(sink);
    }
    ++cell_.lookups;
    path_length_.add(result.hops);
    timeouts_.add(result.timeouts);
    route_latency_.add(result.route_latency);
    cell_.records.push_back(LookupRecord{result.destination, result.hops,
                                         result.timeouts, result.status});
    if (result.status == dht::LookupStatus::kFailed) ++cell_.failed;
    if (result.status == dht::LookupStatus::kHopLimit) ++cell_.hop_limit;
    if (hooks_.oracle && result.success &&
        result.destination != net_->owner_of(key)) {
      ++cell_.misrouted;
    }
  }

  const ChurnCellSpec spec_;
  const ChurnHooks hooks_;
  Tracer disabled_;
  Tracer& tracer_;
  const ChurnSpans spans_;
  std::unique_ptr<dht::DhtNetwork> net_;
  std::size_t initial_size_ = 0;
  bool incremental_ = false;
  util::Rng rng_;
  sim::EventQueue queue_;
  cycloid::stats::Summary path_length_;
  cycloid::stats::Summary timeouts_;
  cycloid::stats::Summary route_latency_;
  dht::RouterOptions lookup_options_;
  ChurnCell cell_;
  std::shared_ptr<std::function<void(dht::NodeHandle)>> stabilizer_ =
      std::make_shared<std::function<void(dht::NodeHandle)>>();
  std::shared_ptr<sim::PeriodicProcess> drain_proc_;
  std::shared_ptr<sim::PoissonProcess> lookup_proc_;
  std::shared_ptr<sim::PoissonProcess> join_proc_;
  std::shared_ptr<sim::PoissonProcess> leave_proc_;
};

}  // namespace

ChurnCell run_churn_cell(const ChurnCellSpec& spec, const ChurnHooks& hooks) {
  ChurnSim sim(spec, hooks);
  sim.advance(spec.duration);
  return sim.finish();
}

// --- The churn workload ----------------------------------------------------

ChurnPlan churn_plan(int seconds) {
  // Virtual durations are sized so the simulation runs about `seconds` on
  // the reference machine (README.md): 400 virtual seconds per second for
  // the overlays whose per-event repair is cheap, a tenth of that for
  // Viceroy and Pastry, whose joins and refreshes cost milliseconds.
  const double scale = static_cast<double>(seconds);
  ChurnPlan plan;
  for (const exp::OverlayKind kind : exp::extended_overlays()) {
    const bool heavy = kind == exp::OverlayKind::kViceroy ||
                       kind == exp::OverlayKind::kPastry;
    plan.cells.push_back({kind, (heavy ? 40.0 : 400.0) * scale});
  }
  return plan;
}

ChurnPlan churn_probe_plan() {
  ChurnPlan plan = churn_plan(1);
  plan.setup_reps = 1;
  return plan;
}

WorkloadRun run_churn(const ChurnPlan& plan, std::uint64_t seed,
                      Tracer& tracer) {
  WorkloadRun run;
  std::vector<double> setup_s;
  std::vector<double> events_per_s;
  std::vector<double> hops;
  std::vector<double> updates_per_event;
  std::uint64_t lookups = 0;
  std::uint64_t failed = 0;
  std::uint64_t hop_limit = 0;
  std::uint64_t misrouted = 0;
  std::uint64_t events = 0;
  std::ostringstream details;
  details << "[";

  struct OverlayLayer {
    std::uint64_t updates = 0;
    std::uint64_t membership = 0;
    std::uint64_t lookups = 0;
    double timeouts = 0.0;
    std::uint64_t refreshed = 0;
    std::uint64_t skipped = 0;
  };
  std::vector<OverlayLayer> layers(plan.cells.size());

  // Every cell is built up front and the cells take turns, each running
  // an eighth of its 60-virtual-second windows per round, so every cell is
  // measured across the whole run rather than in one stretch of it.
  struct Slot {
    std::size_t overlay;
    ChurnCellSpec spec;
    std::unique_ptr<ChurnSim> sim;
    std::size_t windows;
  };
  std::vector<Slot> slots;
  ChurnHooks timed_hooks;
  timed_hooks.tracer = &tracer;
  for (std::size_t oi = 0; oi < plan.cells.size(); ++oi) {
    for (const exp::StabilizeMode mode :
         {exp::StabilizeMode::kFull, exp::StabilizeMode::kIncremental}) {
      Slot slot{oi, ChurnCellSpec{}, nullptr, 0};
      slot.spec.kind = plan.cells[oi].kind;
      slot.spec.duration = plan.cells[oi].duration;
      slot.spec.seed = seed;
      slot.spec.mode = mode;
      // Extra builds of the same network for a steadier set-up figure.
      std::vector<double> builds;
      for (int rep = 1; rep < plan.setup_reps; ++rep) {
        const std::int64_t start = now_ns();
        auto net = exp::make_dense_overlay(
            slot.spec.kind, slot.spec.dimension,
            churn_cell_seed(seed, slot.spec.kind, slot.spec.rate));
        builds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
      }
      const std::int64_t start = now_ns();
      slot.sim = std::make_unique<ChurnSim>(slot.spec, timed_hooks);
      builds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
      setup_s.push_back(median_of(builds));
      slot.windows = static_cast<std::size_t>(
          std::ceil(slot.spec.duration / kWindowSeconds));
      slots.push_back(std::move(slot));
    }
  }
  constexpr std::size_t kRounds = 8;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (Slot& slot : slots) {
      const std::size_t first = slot.windows * round / kRounds;
      const std::size_t last = slot.windows * (round + 1) / kRounds;
      for (std::size_t w = first; w < last; ++w) {
        slot.sim->advance(std::min(static_cast<double>(w + 1) * kWindowSeconds,
                                   slot.spec.duration));
      }
    }
  }

  for (Slot& slot : slots) {
    const ChurnCellSpec& spec = slot.spec;
    ChurnCell cell = slot.sim->finish();
    slot.sim.reset();
    {
      const std::size_t oi = slot.overlay;
      const exp::StabilizeMode mode = spec.mode;

      // Untimed replay on the same seed with the owner_of oracle on.
      ChurnHooks replay_hooks;
      replay_hooks.oracle = true;
      const ChurnCell replay = run_churn_cell(spec, replay_hooks);
      const std::string label = overlay_key(spec.kind) +
                                (mode == exp::StabilizeMode::kFull ? "/full"
                                                                   : "/incr");
      if (replay.records != cell.records || replay.events != cell.events) {
        run.fail("churn " + label + ": replay diverged from the timed run");
      }

      events += cell.events;
      lookups += cell.lookups;
      failed += cell.failed;
      hop_limit += cell.hop_limit;
      misrouted += replay.misrouted;
      events_per_s.push_back(window_rate(cell.window_rates));
      hops.push_back(replay.row.mean_path);
      const std::uint64_t membership = replay.joins + replay.leaves;
      updates_per_event.push_back(
          membership == 0 ? 0.0
                          : static_cast<double>(replay.row.maintenance_total) /
                                static_cast<double>(membership));

      OverlayLayer& layer = layers[oi];
      layer.updates += replay.row.maintenance_total;
      layer.membership += membership;
      layer.lookups += replay.lookups;
      layer.timeouts += replay.row.mean_timeouts *
                        static_cast<double>(replay.lookups);
      layer.refreshed += replay.row.nodes_refreshed_dirty;
      layer.skipped += replay.row.nodes_skipped_clean;

      const std::string key = "churn." + label + ".";
      run.deterministic[key + "lookups"] = static_cast<double>(replay.lookups);
      run.deterministic[key + "mean_path"] = replay.row.mean_path;
      run.deterministic[key + "mean_timeouts"] = replay.row.mean_timeouts;
      run.deterministic[key + "failures"] =
          static_cast<double>(replay.row.failures);
      run.deterministic[key + "maintenance"] =
          static_cast<double>(replay.row.maintenance_total);
      run.deterministic[key + "events"] = static_cast<double>(cell.events);
      run.deterministic[key + "final_size"] =
          static_cast<double>(replay.row.final_size);

      details << (details.tellp() > 1 ? ", " : "") << "{\"cell\": "
              << json_string(label)
              << ", \"virtual_s\": " << json_number(spec.duration)
              << ", \"events\": " << cell.events
              << ", \"lookups\": " << cell.lookups
              << ", \"joins\": " << cell.joins
              << ", \"leaves\": " << cell.leaves
              << ", \"refreshes\": " << cell.refreshes
              << ", \"drains\": " << cell.drains
              << ", \"build_s\": " << json_number(cell.build_s)
              << ", \"run_s\": " << json_number(cell.run_s)
              << ", \"events_per_s\": " << json_number(events_per_s.back())
              << ", \"wall_events_per_s\": "
              << json_number(static_cast<double>(cell.events) / cell.run_s)
              << ", \"windows\": " << cell.window_rates.size()
              << ", \"mean_path\": " << json_number(replay.row.mean_path)
              << ", \"mean_timeouts\": "
              << json_number(replay.row.mean_timeouts)
              << ", \"failed\": " << replay.failed
              << ", \"hop_limit\": " << replay.hop_limit
              << ", \"misrouted\": " << replay.misrouted
              << ", \"maintenance\": " << replay.row.maintenance_total
              << ", \"final_size\": " << replay.row.final_size << "}";
    }
  }
  details << "]";
  run.details_json = details.str();

  // Under churn a lookup may end kFailed (every pointer it holds is dead)
  // or reach a node that is no longer the owner (stale state): the paper
  // measures both, and they count against ok_share. A hop-limit stop is a
  // routing loop, which is a bug in any state, so it fails the run.
  const std::uint64_t bad = failed + hop_limit + misrouted;
  run.attempted = events;
  run.failed = hop_limit;
  if (hop_limit != 0) {
    run.fail("churn: " + std::to_string(hop_limit) +
             " lookups hit the hop limit");
  }
  run.deterministic["failed"] = static_cast<double>(failed);
  run.deterministic["hop_limit"] = static_cast<double>(hop_limit);
  run.deterministic["misrouted"] = static_cast<double>(misrouted);

  double setup_total = 0.0;
  for (const double v : setup_s) setup_total += v;
  run.add_end_to_end("setup_s", setup_total, "s");
  run.add_end_to_end("ops_per_s", geomean_of(events_per_s), "ops/s");
  run.add_end_to_end("hops_mean", mean_of(hops), "hops");
  run.add_end_to_end("maint_updates_per_event", mean_of(updates_per_event),
                     "updates/event");
  run.add_end_to_end("ok_share",
                     1.0 - static_cast<double>(bad) /
                               static_cast<double>(lookups),
                     "fraction");
  run.deterministic["hops_mean"] = mean_of(hops);
  run.deterministic["maint_updates_per_event"] = mean_of(updates_per_event);
  run.deterministic["ok_share"] = run.end_to_end.back().value;

  if (!tracer.enabled()) return run;

  const auto totals = tracer.totals();
  const auto per_call = [&](const std::string& span, double scale) {
    const auto it = totals.find(span);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    return it->second.total_s * scale / static_cast<double>(it->second.count);
  };
  for (std::size_t oi = 0; oi < plan.cells.size(); ++oi) {
    const std::string ov = overlay_key(plan.cells[oi].kind);
    const OverlayLayer& layer = layers[oi];
    run.add_per_layer("dht.router.seq_route_us." + ov,
                      per_call("dht.router.seq_route." + ov, 1e6), "us");
    run.add_per_layer("dht.maintenance.join_us." + ov,
                      per_call("dht.maintenance.join." + ov, 1e6), "us");
    run.add_per_layer("dht.maintenance.leave_us." + ov,
                      per_call("dht.maintenance.leave." + ov, 1e6), "us");
    run.add_per_layer("dht.maintenance.refresh_us." + ov,
                      per_call("dht.maintenance.refresh." + ov, 1e6), "us");
    run.add_per_layer("dht.maintenance.drain_ms." + ov,
                      per_call("dht.maintenance.drain." + ov, 1e3), "ms");
    run.add_per_layer(
        "dht.maintenance.updates_per_event." + ov,
        layer.membership == 0 ? 0.0
                              : static_cast<double>(layer.updates) /
                                    static_cast<double>(layer.membership),
        "updates/event");
    const std::uint64_t scanned = layer.refreshed + layer.skipped;
    run.add_per_layer("dht.maintenance.skip_share." + ov,
                      scanned == 0 ? 0.0
                                   : static_cast<double>(layer.skipped) /
                                         static_cast<double>(scanned),
                      "fraction");
    run.add_per_layer("dht.router.timeouts." + ov,
                      layer.lookups == 0
                          ? 0.0
                          : layer.timeouts / static_cast<double>(layer.lookups),
                      "timeouts/lookup");
  }
  const auto sim_it = totals.find("sim.run_until");
  run.add_per_layer("sim.events", static_cast<double>(events), "count");
  run.add_per_layer("sim.self_s",
                    sim_it == totals.end() ? 0.0 : sim_it->second.self_s, "s");
  return run;
}

}  // namespace perfbench
