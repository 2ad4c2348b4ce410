// The benchmark's copy of the fig. 12 churn driver.
//
// run_churn_cell replays exp::run_churn_experiment event for event — same
// seed derivation, network, RNG draw order and statistics — so its row
// equals the library driver's bit for bit (tests/churn_equivalence_test).
// What it adds is measurement: the event rate of every simulation step,
// spans around every call into the library, and a switch that keeps the
// ground-truth owner_of oracle out of the timed run and in a separate
// replay.
#pragma once

#include <cstdint>
#include <vector>

#include "dht/types.hpp"
#include "exp/experiments.hpp"
#include "trace.hpp"

namespace perfbench {

struct ChurnCellSpec {
  cycloid::exp::OverlayKind kind = cycloid::exp::OverlayKind::kCycloid7;
  int dimension = 8;
  double rate = 2.0;  // joins/s and leaves/s each
  double duration = 3000.0;
  double stabilize_period = 30.0;
  std::uint64_t seed = 0;
  cycloid::exp::StabilizeMode mode = cycloid::exp::StabilizeMode::kFull;
};

/// What one lookup returned, for comparing a timed run with its replay.
struct LookupRecord {
  cycloid::dht::NodeHandle destination = cycloid::dht::kNoNode;
  int hops = 0;
  int timeouts = 0;
  cycloid::dht::LookupStatus status = cycloid::dht::LookupStatus::kDelivered;

  bool operator==(const LookupRecord&) const = default;
};

struct ChurnHooks {
  /// Check every delivered lookup against owner_of at lookup time. Only
  /// the untimed replay sets this.
  bool oracle = false;
  /// Spans around each library call (nullptr or disabled: none).
  Tracer* tracer = nullptr;
};

struct ChurnCell {
  /// The fig. 12 row. `failures` counts misrouted lookups only when the
  /// oracle ran; without it they are unknown and left out.
  cycloid::exp::ChurnRow row;
  /// Events the simulator executed (lookups, joins, leaves, per-node
  /// refreshes, dirty-queue drains) and their split.
  std::uint64_t events = 0;
  std::uint64_t lookups = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t drains = 0;
  /// Lookup outcomes by cause.
  std::uint64_t failed = 0;
  std::uint64_t hop_limit = 0;
  std::uint64_t misrouted = 0;
  double build_s = 0.0;
  /// Wall seconds of the simulation (queue.run_until, summed over steps).
  double run_s = 0.0;
  /// Events per wall second of each simulation step. run_churn_cell runs
  /// one step; the churn workload steps 60 virtual seconds at a time, two
  /// refresh periods, so every step does the same kind of work.
  std::vector<double> window_rates;
  std::vector<LookupRecord> records;
};

ChurnCell run_churn_cell(const ChurnCellSpec& spec, const ChurnHooks& hooks);

/// The fig. 12 driver's per-cell seed (exp::run_churn_experiment derives
/// its network and RNG seeds from this).
std::uint64_t churn_cell_seed(std::uint64_t seed,
                              cycloid::exp::OverlayKind kind, double rate);

}  // namespace perfbench
