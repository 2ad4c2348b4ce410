// Tracing must observe without perturbing: a traced and an untraced run on
// one seed agree on every seed-determined quantity, child spans stay inside
// their parents, and every workload's traced run reports its per-layer
// families and a finite tracing overhead.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <thread>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr std::uint64_t kSeed = 7;

std::set<std::string> names_of(const std::vector<Metric>& metrics) {
  std::set<std::string> names;
  for (const Metric& m : metrics) names.insert(m.name);
  return names;
}

void expect_traced_matches_untraced(const WorkloadRun& base,
                                    const WorkloadRun& traced) {
  EXPECT_TRUE(base.correct);
  EXPECT_TRUE(traced.correct);
  EXPECT_FALSE(base.deterministic.empty());
  EXPECT_EQ(traced.deterministic, base.deterministic);
  for (const char* key :
       {"hops_mean", "maint_updates_per_event", "ok_share"}) {
    EXPECT_TRUE(base.deterministic.contains(key)) << key;
  }
  EXPECT_TRUE(base.per_layer.empty());
  EXPECT_FALSE(traced.per_layer.empty());
  EXPECT_EQ(names_of(traced.end_to_end), names_of(base.end_to_end));
  const double overhead = metric_value(base.end_to_end, "ops_per_s") /
                              metric_value(traced.end_to_end, "ops_per_s") -
                          1.0;
  EXPECT_TRUE(std::isfinite(overhead));
}

TEST(TraceInvariants, LookupProbe) {
  Tracer off;
  Tracer on(true);
  const WorkloadRun base = run_lookup(lookup_probe_plan(), kSeed, off);
  const WorkloadRun traced = run_lookup(lookup_probe_plan(), kSeed, on);
  expect_traced_matches_untraced(base, traced);
  EXPECT_EQ(on.nesting_violations(), 0u);
  EXPECT_EQ(traced.per_layer.size(), 6u * 7u);
  EXPECT_TRUE(names_of(traced.per_layer).contains("dht.router.lane_gain.can"));
}

TEST(TraceInvariants, KvProbe) {
  Tracer off;
  Tracer on(true);
  const WorkloadRun base = run_kv(kv_probe_plan(), kSeed, off);
  const WorkloadRun traced = run_kv(kv_probe_plan(), kSeed, on);
  expect_traced_matches_untraced(base, traced);
  EXPECT_EQ(on.nesting_violations(), 0u);
  EXPECT_EQ(traced.per_layer.size(), 5u);
}

TEST(TraceInvariants, ChurnProbe) {
  Tracer off;
  Tracer on(true);
  const WorkloadRun base = run_churn(churn_probe_plan(), kSeed, off);
  const WorkloadRun traced = run_churn(churn_probe_plan(), kSeed, on);
  expect_traced_matches_untraced(base, traced);
  EXPECT_EQ(on.nesting_violations(), 0u);
  EXPECT_EQ(traced.per_layer.size(), 8u * 7u + 2u);
  // The simulator's own time is what remains of run_until once the calls
  // into the dht layer are taken out: positive, and below the whole.
  const auto totals = on.totals();
  const Tracer::Totals& sim = totals.at("sim.run_until");
  EXPECT_GT(sim.self_s, 0.0);
  EXPECT_LT(sim.self_s, sim.total_s);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer(true);
  const std::uint32_t outer = tracer.intern("outer");
  const std::uint32_t inner = tracer.intern("inner");
  {
    Scope a(tracer, outer);
    for (int i = 0; i < 3; ++i) {
      Scope b(tracer, inner);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(tracer.nesting_violations(), 0u);
  const auto totals = tracer.totals();
  const Tracer::Totals& o = totals.at("outer");
  const Tracer::Totals& in = totals.at("inner");
  EXPECT_EQ(o.count, 1u);
  EXPECT_EQ(in.count, 3u);
  EXPECT_GE(in.total_s, 0.006);
  EXPECT_LE(in.total_s, o.total_s);
  EXPECT_NEAR(o.self_s, o.total_s - in.total_s, 1e-12);
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.parent == Tracer::kNoParent) continue;
    const Tracer::Span& parent = tracer.spans()[span.parent];
    EXPECT_GE(span.start_ns, parent.start_ns);
    EXPECT_LE(span.end_ns, parent.end_ns);
  }
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  const std::uint32_t name = tracer.intern("x");
  { Scope s(tracer, name); }
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.totals().empty());
}

TEST(Tracer, OpenSpanIsAViolation) {
  Tracer tracer(true);
  tracer.open(tracer.intern("left-open"));
  EXPECT_EQ(tracer.nesting_violations(), 1u);
}

}  // namespace
