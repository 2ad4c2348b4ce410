// The benchmark's workloads. Each takes a plan (sizes and operation
// counts, fixed for a given --seconds so the seed-determined metrics
// repeat exactly) and the workload seed, and returns a WorkloadRun. With an
// enabled tracer the run also fills its per-layer metrics.
//
//   lookup  route_batch throughput at W = 8 on fresh sparse networks of all
//           seven overlays (uniform sources and keys)
//   churn   the fig. 12 simulation (2048-node dense start, lookups 1/s,
//           joins and leaves 2/s each) for all seven overlays under both
//           stabilization modes
//   kv      closed-loop DhtStore client, 90% Zipf gets / 10% Zipf
//           overwrites, over Cycloid-7 at n = 2^12
#pragma once

#include <cstdint>
#include <vector>

#include "exp/overlays.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct LookupPlan {
  struct Cell {
    cycloid::exp::OverlayKind kind;
    std::uint64_t nodes;
    std::uint64_t lookups;  // a multiple of the 256-lookup timing chunk
  };
  std::vector<Cell> cells;
};

struct KvPlan {
  std::uint64_t ops;
  int setup_reps;
};

struct ChurnPlan {
  struct Cell {
    cycloid::exp::OverlayKind kind;
    double duration;  // virtual seconds
  };
  std::vector<Cell> cells;
  int setup_reps = 5;
};

/// Full-size plans: the timed region lasts about `seconds` on the
/// reference machine (see README.md).
LookupPlan lookup_plan(int seconds);
KvPlan kv_plan(int seconds);
ChurnPlan churn_plan(int seconds);

/// Reduced plans a traced run uses to fill the per-layer families it does
/// not measure itself.
LookupPlan lookup_probe_plan();
KvPlan kv_probe_plan();
ChurnPlan churn_probe_plan();

WorkloadRun run_lookup(const LookupPlan& plan, std::uint64_t seed,
                       Tracer& tracer);
WorkloadRun run_kv(const KvPlan& plan, std::uint64_t seed, Tracer& tracer);
WorkloadRun run_churn(const ChurnPlan& plan, std::uint64_t seed,
                      Tracer& tracer);

}  // namespace perfbench
