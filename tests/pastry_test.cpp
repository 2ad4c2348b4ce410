// Tests for the Pastry overlay — the prefix-routing scheme Cycloid's
// descending phase derives from (paper Sec. 2.1).
#include "pastry/pastry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace cycloid::pastry {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

TEST(PastryDigits, ExtractionMatchesDefinition) {
  PastryNetwork net(12, /*bits_per_digit=*/2);
  EXPECT_EQ(net.digit_count(), 6);
  const std::uint64_t id = 0b11'01'00'10'11'01;
  EXPECT_EQ(net.digit(id, 0), 0b11);
  EXPECT_EQ(net.digit(id, 1), 0b01);
  EXPECT_EQ(net.digit(id, 2), 0b00);
  EXPECT_EQ(net.digit(id, 3), 0b10);
  EXPECT_EQ(net.digit(id, 5), 0b01);
}

TEST(PastryDigits, SharedPrefixLength) {
  PastryNetwork net(12, 2);
  EXPECT_EQ(net.shared_prefix_digits(0b110100101101, 0b110100101101), 6);
  EXPECT_EQ(net.shared_prefix_digits(0b110100101101, 0b110100101100), 5);
  EXPECT_EQ(net.shared_prefix_digits(0b110100101101, 0b000000000000), 0);
  EXPECT_EQ(net.shared_prefix_digits(0b110100000000, 0b110111000000), 2);
}

TEST(PastryStructure, RoutingTableEntriesMatchPrefixPattern) {
  util::Rng rng(1);
  auto net = PastryNetwork::build_random(12, 150, rng, 2);
  for (const NodeHandle h : net->node_handles()) {
    const PastryNode& node = net->node_state(h);
    for (int row = 0; row < net->digit_count(); ++row) {
      for (int col = 0; col < 4; ++col) {
        const NodeHandle entry = net->table_entry(node, row, col);
        if (col == net->digit(node.id, row)) {
          EXPECT_EQ(entry, kNoNode);  // own digit: column unused
          continue;
        }
        if (entry == kNoNode) continue;
        // Entry shares exactly `row` digits with the node and has digit
        // `col` at position `row`.
        EXPECT_GE(net->shared_prefix_digits(entry, node.id), row);
        EXPECT_EQ(net->digit(entry, row), col);
      }
    }
  }
}

TEST(PastryStructure, LeafSetsAreRingNeighbors) {
  util::Rng rng(2);
  auto net = PastryNetwork::build_random(10, 60, rng, 2);
  const auto handles = net->node_handles();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const PastryNode& node = net->node_state(handles[i]);
    ASSERT_EQ(node.leaf_larger.size(), 4u);
    ASSERT_EQ(node.leaf_smaller.size(), 4u);
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(node.leaf_larger[static_cast<std::size_t>(s)],
                handles[(i + static_cast<std::size_t>(s) + 1) % handles.size()]);
      EXPECT_EQ(node.leaf_smaller[static_cast<std::size_t>(s)],
                handles[(i + handles.size() - static_cast<std::size_t>(s) - 1) %
                        handles.size()]);
    }
  }
}

/// The reference M: every other live node ranked by (proximity, handle),
/// the |M| = 8 best kept — the linear scan the proximity grid replaces.
std::vector<NodeHandle> reference_neighborhood(const PastryNetwork& net,
                                               NodeHandle h) {
  const PastryNode& node = net.node_state(h);
  std::vector<std::pair<double, NodeHandle>> ranked;
  for (const NodeHandle other : net.node_handles()) {
    if (other == h) continue;
    const PastryNode& o = net.node_state(other);
    ranked.emplace_back(torus_distance2(node.x, node.y, o.x, o.y), other);
  }
  const std::size_t keep = std::min<std::size_t>(8, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end());
  std::vector<NodeHandle> out;
  for (std::size_t i = 0; i < keep; ++i) out.push_back(ranked[i].second);
  return out;
}

void expect_exact_neighborhood(const PastryNetwork& net, NodeHandle h) {
  EXPECT_EQ(net.node_state(h).neighborhood, reference_neighborhood(net, h))
      << "node " << h;
}

void expect_exact_neighborhoods(const PastryNetwork& net) {
  for (const NodeHandle h : net.node_handles()) {
    expect_exact_neighborhood(net, h);
  }
}

TEST(PastryStructure, NeighborhoodHoldsProximityNearestNodes) {
  util::Rng rng(3);
  // n = 2 and 9 keep the grid at one and two cells per axis, where every
  // query scans the whole torus; 40 and 4096 give it 4 and 32.
  for (const std::size_t n : {2u, 9u, 40u, 4096u}) {
    auto net = PastryNetwork::build_random(14, n, rng, 2);
    expect_exact_neighborhoods(*net);
    for (const NodeHandle h : net->node_handles()) {
      EXPECT_EQ(net->node_state(h).neighborhood.size(),
                std::min<std::size_t>(8, n - 1));
    }
  }
}

/// Background nodes at random coordinates at least `clearance` (torus
/// distance) from (cx, cy), so a hand-placed cluster there keeps its ties.
void add_background(PastryNetwork& net, util::Rng& rng, std::size_t count,
                    double cx, double cy, double clearance) {
  while (net.node_count() < count) {
    const double x = rng.uniform01();
    const double y = rng.uniform01();
    if (torus_distance2(x, y, cx, cy) < clearance * clearance) continue;
    net.insert(rng.below(net.space_size()), x, y);
  }
}

TEST(PastryStructure, NeighborhoodBreaksExactTiesByHandle) {
  // Twelve nodes at squared distance exactly 25/2^16 from a centre node on
  // a cell corner: (5/256, 0) and (3/256, 4/256) up to sign and axis swap,
  // all dyadic, so the distances tie bit for bit and the handle decides
  // which 8 make the centre's M.
  PastryNetwork net(16, 2);
  net.begin_bulk();
  const double c = 0.5;
  const double u = 1.0 / 256;
  std::uint64_t id = 40000;
  ASSERT_TRUE(net.insert(id, c, c));
  const double offsets[][2] = {{5, 0}, {-5, 0}, {0, 5},  {0, -5},
                               {3, 4}, {3, -4}, {-3, 4}, {-3, -4},
                               {4, 3}, {4, -3}, {-4, 3}, {-4, -3}};
  for (const auto& off : offsets) {
    id = (id * 7919 + 13) % net.space_size();
    ASSERT_TRUE(net.insert(id, c + off[0] * u, c + off[1] * u));
  }
  util::Rng rng(31);
  add_background(net, rng, 1500, c, c, 0.05);
  net.finish_bulk();
  expect_exact_neighborhoods(net);

  // The same holds for nodes joining into the tie afterwards (each M is
  // exact when its join computes it).
  ASSERT_TRUE(net.insert(3, c - 5 * u, c));
  expect_exact_neighborhood(net, 3);
  ASSERT_TRUE(net.insert(2, c, c - 5 * u));
  expect_exact_neighborhood(net, 2);
}

TEST(PastryStructure, NeighborhoodWrapsAcrossTheTorusSeam) {
  // A cluster straddling the corner where 0.0 meets the largest double
  // below 1.0 on both axes: the torus puts these nodes within ~1e-16 of
  // each other, and (1/256, 0) ties with (1 - 1/256, 0) from (0, 0).
  const double top = std::nextafter(1.0, 0.0);
  const double u = 1.0 / 256;
  PastryNetwork net(16, 2);
  net.begin_bulk();
  const double points[][2] = {{0.0, 0.0},     {top, 0.0},     {0.0, top},
                              {top, top},     {u, 0.0},       {1.0 - u, 0.0},
                              {0.0, u},       {0.0, 1.0 - u}, {u, u},
                              {1.0 - u, top}, {2 * u, 1 - u}, {top, 2 * u}};
  std::uint64_t id = 12345;
  for (const auto& p : points) {
    id = (id * 7919 + 13) % net.space_size();
    ASSERT_TRUE(net.insert(id, p[0], p[1]));
  }
  util::Rng rng(32);
  add_background(net, rng, 1500, 0.0, 0.0, 0.05);
  net.finish_bulk();
  expect_exact_neighborhoods(net);
}

TEST(PastryStructure, NeighborhoodStaysExactThroughChurn) {
  util::Rng rng(33);
  auto net = PastryNetwork::build_random(14, 600, rng, 2);
  for (int step = 0; step < 200; ++step) {
    const double u = rng.uniform01();
    if (u < 0.35) {
      const NodeHandle h = net->join(rng());
      if (h != kNoNode) expect_exact_neighborhood(*net, h);  // on_join
    } else if (u < 0.55) {
      net->leave(net->random_node(rng));
    } else if (u < 0.7) {
      net->fail_ungraceful(net->random_node(rng));
    } else {
      const NodeHandle h = net->random_node(rng);
      net->stabilize_one(h);
      expect_exact_neighborhood(*net, h);
    }
  }
  net->stabilize_all(2);
  expect_exact_neighborhoods(*net);
}

TEST(PastryStructure, NeighborhoodExactAfterDirtyDrain) {
  util::Rng rng(34);
  auto net = PastryNetwork::build_random(14, 800, rng, 2);
  net->set_dirty_tracking(true);
  for (int step = 0; step < 150; ++step) {
    const double u = rng.uniform01();
    if (u < 0.4) {
      net->join(rng());
    } else if (u < 0.7) {
      net->leave(net->random_node(rng));
    } else {
      net->fail_ungraceful(net->random_node(rng));
    }
  }
  net->fail_ungraceful(0.1, rng);
  net->stabilize_dirty(3);
  expect_exact_neighborhoods(*net);
}

TEST(PastryStructure, NeighborhoodSelectionRanksConstantCandidatesPerNode) {
  // A linear scan ranks n - 1 = 16,383 candidates per node; the grid query
  // ranks O(|M|). Deterministic on the fixed seed, so this pins
  // subquadratic construction without a clock.
  util::Rng rng(35);
  const std::size_t n = 1u << 14;
  auto net = PastryNetwork::build_random(16, n, rng, 1, /*threads=*/2);
  const double per_node = static_cast<double>(net->neighborhood_candidates()) /
                          static_cast<double>(n);
  EXPECT_LE(per_node, 64.0);
  EXPECT_GE(per_node, 8.0);
}

TEST(ProximityGridTest, NearestMatchesBruteForceAsTheGridGrowsAndShrinks) {
  util::Rng rng(36);
  ProximityGrid grid;
  std::vector<ProximityGrid::Entry> members;
  const auto check = [&](std::size_t k) {
    for (std::size_t i = 0; i < members.size(); i += 7) {
      const ProximityGrid::Entry& q = members[i];
      std::vector<std::pair<double, NodeHandle>> ranked;
      for (const ProximityGrid::Entry& e : members) {
        if (e.handle == q.handle) continue;
        ranked.emplace_back(torus_distance2(q.x, q.y, e.x, e.y), e.handle);
      }
      std::sort(ranked.begin(), ranked.end());
      ranked.resize(std::min(k, ranked.size()));
      std::vector<NodeHandle> expected;
      for (const auto& r : ranked) expected.push_back(r.second);
      std::vector<NodeHandle> got;
      grid.nearest(q, k, got);
      ASSERT_EQ(got, expected) << "query " << q.handle << " n "
                               << members.size();
    }
  };
  for (NodeHandle h = 0; h < 3000; ++h) {
    members.push_back({rng.uniform01(), rng.uniform01(), h});
    grid.insert(members.back());
  }
  EXPECT_EQ(grid.size(), 3000u);
  EXPECT_GE(grid.dim(), 16);
  check(8);
  check(40);
  while (members.size() > 12) {
    const std::size_t victim = rng.below(members.size());
    grid.erase(members[victim]);
    members[victim] = members.back();
    members.pop_back();
  }
  EXPECT_EQ(grid.size(), 12u);
  EXPECT_LE(grid.dim(), 4);
  check(8);
  check(100);  // more than the grid holds: everyone else, ranked
}

TEST(PastryLookup, AlwaysFindsOwner) {
  util::Rng rng(4);
  for (const std::size_t n : {2u, 9u, 77u, 400u}) {
    auto net = PastryNetwork::build_random(12, n, rng, 2);
    for (int i = 0; i < 300; ++i) {
      const dht::KeyHash key = rng();
      const dht::LookupResult result = net->lookup(net->random_node(rng), key);
      EXPECT_TRUE(result.success);
      EXPECT_EQ(result.destination, net->owner_of(key));
      EXPECT_EQ(result.timeouts, 0);
    }
  }
}

TEST(PastryLookup, OwnerIsNumericallyClosest) {
  util::Rng rng(5);
  auto net = PastryNetwork::build_random(12, 120, rng, 2);
  for (int i = 0; i < 300; ++i) {
    const dht::KeyHash key = rng();
    const std::uint64_t target = key % net->space_size();
    const NodeHandle owner = net->owner_of(key);
    const std::uint64_t owner_dist =
        util::circular_distance(owner, target, net->space_size());
    for (const NodeHandle h : net->node_handles()) {
      EXPECT_GE(util::circular_distance(h, target, net->space_size()),
                owner_dist);
    }
  }
}

TEST(PastryLookup, LogarithmicPathLength) {
  util::Rng rng(6);
  auto net = PastryNetwork::build_random(12, 1024, rng, 2);
  double total = 0;
  const int lookups = 2000;
  for (int i = 0; i < lookups; ++i) {
    total += net->lookup(net->random_node(rng), rng()).hops;
  }
  // Base-4 prefix routing: ~log_4(1024) = 5 digit corrections.
  EXPECT_LT(total / lookups, 8.0);
  EXPECT_GT(total / lookups, 2.0);
}

TEST(PastryLookup, PhasePartition) {
  util::Rng rng(7);
  auto net = PastryNetwork::build_random(12, 200, rng, 2);
  for (int i = 0; i < 200; ++i) {
    const dht::LookupResult result = net->lookup(net->random_node(rng), rng());
    EXPECT_EQ(result.phase_hops[PastryNetwork::kPrefix] +
                  result.phase_hops[PastryNetwork::kLeaf],
              result.hops);
  }
}

TEST(PastryMembership, JoinLeaveKeepCorrectness) {
  util::Rng rng(8);
  auto net = PastryNetwork::build_random(11, 90, rng, /*bits_per_digit=*/1);
  for (int round = 0; round < 120; ++round) {
    if (rng.chance(0.5) && net->node_count() > 10) {
      net->leave(net->random_node(rng));
    } else {
      net->join(rng());
    }
    const dht::KeyHash key = rng();
    const dht::LookupResult result = net->lookup(net->random_node(rng), key);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
  }
}

TEST(PastryFailures, TimeoutsOnStaleTablesNoFailures) {
  util::Rng rng(9);
  auto net = PastryNetwork::build_random(11, 800, rng, 1);
  net->fail_simultaneously(0.4, rng);
  int timeouts = 0;
  for (int i = 0; i < 800; ++i) {
    const dht::KeyHash key = rng();
    const dht::LookupResult result = net->lookup(net->random_node(rng), key);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.destination, net->owner_of(key));
    timeouts += result.timeouts;
  }
  EXPECT_GT(timeouts, 0);
  net->stabilize_all();
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(net->lookup(net->random_node(rng), rng()).timeouts, 0);
  }
}

TEST(PastryConfig, RejectsIndivisibleDigitWidth) {
  EXPECT_DEATH(PastryNetwork(11, 2), "Precondition");
}

TEST(PastryConfig, RejectsCoordinatesOffTheUnitTorus) {
  // The torus metric and the proximity grid assume [0, 1) on both axes.
  PastryNetwork net(12, 2);
  EXPECT_DEATH(net.insert(5, 1.0, 0.5), "Precondition");
  EXPECT_DEATH(net.insert(5, 0.5, 1.0), "Precondition");
  EXPECT_DEATH(net.insert(5, -0.25, 0.5), "Precondition");
  EXPECT_DEATH(net.insert(5, 0.5, std::nan("")), "Precondition");
  EXPECT_TRUE(net.insert(5, 0.0, std::nextafter(1.0, 0.0)));
}

}  // namespace
}  // namespace cycloid::pastry
