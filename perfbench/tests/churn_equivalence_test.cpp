// The benchmark's churn driver must time the real fig. 12 workload: at
// fig. 12's parameters it reproduces exp::run_churn_experiment's ChurnRow
// bit for bit, for every overlay under both stabilization modes, and its
// timed (oracle-free) run routes exactly the lookups its oracle replay does.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "churn.hpp"
#include "exp/experiments.hpp"
#include "report.hpp"

namespace {

namespace exp = cycloid::exp;
using perfbench::ChurnCell;
using perfbench::ChurnCellSpec;
using perfbench::ChurnHooks;

constexpr std::uint64_t kSeed = 20040426;

void expect_rows_equal(const exp::ChurnRow& bench, const exp::ChurnRow& lib) {
  EXPECT_EQ(bench.kind, lib.kind);
  EXPECT_EQ(bench.join_leave_rate, lib.join_leave_rate);
  EXPECT_EQ(bench.lookups, lib.lookups);
  EXPECT_EQ(bench.mean_path, lib.mean_path);
  EXPECT_EQ(bench.mean_timeouts, lib.mean_timeouts);
  EXPECT_EQ(bench.timeouts_p1, lib.timeouts_p1);
  EXPECT_EQ(bench.timeouts_p99, lib.timeouts_p99);
  EXPECT_EQ(bench.failures, lib.failures);
  EXPECT_EQ(bench.final_size, lib.final_size);
  EXPECT_EQ(bench.maintenance_total, lib.maintenance_total);
  EXPECT_EQ(bench.maintenance_by_cause, lib.maintenance_by_cause);
  EXPECT_EQ(bench.nodes_refreshed_dirty, lib.nodes_refreshed_dirty);
  EXPECT_EQ(bench.nodes_skipped_clean, lib.nodes_skipped_clean);
  EXPECT_EQ(bench.mean_route_latency, lib.mean_route_latency);
  EXPECT_EQ(bench.route_latency_p99, lib.route_latency_p99);
}

using Param = std::tuple<exp::OverlayKind, exp::StabilizeMode, double, double>;

class ChurnEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(ChurnEquivalence, ReproducesLibraryDriver) {
  const auto [kind, mode, rate, duration] = GetParam();
  ChurnCellSpec spec;
  spec.kind = kind;
  spec.dimension = 8;  // fig. 12: 2048-node start
  spec.rate = rate;
  spec.duration = duration;
  spec.stabilize_period = 30.0;  // fig. 12: refresh every 30 s
  spec.seed = kSeed;
  spec.mode = mode;

  ChurnHooks replay_hooks;
  replay_hooks.oracle = true;
  const ChurnCell replay = perfbench::run_churn_cell(spec, replay_hooks);
  const exp::ChurnRow lib = exp::run_churn_experiment(
      kind, spec.dimension, rate, duration, spec.stabilize_period, kSeed,
      mode);
  expect_rows_equal(replay.row, lib);
  EXPECT_GT(replay.lookups, 0u);
  // Every counted call is one event; the rest are no-op events (timers of
  // departed nodes, joins into a full space, leaves at the size floor).
  EXPECT_GE(replay.events, replay.lookups + replay.joins + replay.leaves +
                               replay.refreshes + replay.drains);

  // The timed run: no oracle, spans on, same lookups.
  perfbench::Tracer tracer(true);
  ChurnHooks timed_hooks;
  timed_hooks.tracer = &tracer;
  const ChurnCell timed = perfbench::run_churn_cell(spec, timed_hooks);
  EXPECT_EQ(timed.records, replay.records);
  EXPECT_EQ(timed.events, replay.events);
  EXPECT_EQ(timed.window_rates.size(), 1u);
  EXPECT_EQ(timed.row.maintenance_total, lib.maintenance_total);
  EXPECT_EQ(timed.row.failures + replay.misrouted, lib.failures);
  EXPECT_EQ(tracer.nesting_violations(), 0u);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [kind, mode, rate, duration] = info.param;
  return perfbench::overlay_key(kind) +
         (mode == exp::StabilizeMode::kFull ? "_full" : "_incr") + "_R" +
         std::to_string(static_cast<int>(rate * 100)) + "_T" +
         std::to_string(static_cast<int>(duration));
}

// fig. 12's highest rate (R = 0.4) and the benchmark's R = 2.
INSTANTIATE_TEST_SUITE_P(
    Fig12, ChurnEquivalence,
    ::testing::Combine(
        ::testing::ValuesIn(exp::extended_overlays()),
        ::testing::Values(exp::StabilizeMode::kFull,
                          exp::StabilizeMode::kIncremental),
        ::testing::Values(0.4, 2.0), ::testing::Values(600.0)),
    param_name);

}  // namespace
