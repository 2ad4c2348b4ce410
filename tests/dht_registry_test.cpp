// The slot-dense storage plane: SlotIndex (the open-addressing handle ->
// slot map behind the registry) and the registry/arena slot lifecycle —
// slot_of/handle_at inverses through vanish / fail_ungraceful / rejoin
// churn, the swap-remove slot-reassignment contract, and the checked
// node_state accessor trapping on departed handles (DESIGN.md §13).
#include <gtest/gtest.h>

#include <unordered_map>
#include <utility>
#include <vector>

#include "chord/chord.hpp"
#include "core/network.hpp"
#include "dht/slot_index.hpp"
#include "util/rng.hpp"

namespace cycloid::dht {
namespace {

TEST(SlotIndex, InsertLookupEraseBasics) {
  SlotIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.lookup(7), kNoSlot);
  EXPECT_FALSE(index.contains(7));

  index.insert(7, 0);
  index.insert(9, 1);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.lookup(7), 0u);
  EXPECT_EQ(index.lookup(9), 1u);
  EXPECT_EQ(index.lookup(8), kNoSlot);

  index.erase(7);
  EXPECT_EQ(index.lookup(7), kNoSlot);
  EXPECT_EQ(index.lookup(9), 1u);
  EXPECT_EQ(index.size(), 1u);

  index.clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.lookup(9), kNoSlot);
}

TEST(SlotIndex, SetOverwritesExistingSlot) {
  SlotIndex index;
  index.insert(42, 3);
  index.set(42, 11);
  EXPECT_EQ(index.lookup(42), 11u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(SlotIndex, GrowthPreservesAllEntries) {
  SlotIndex index;
  // Far past the initial 16-bucket table: several rehashes.
  for (NodeHandle h = 1; h <= 1000; ++h) {
    index.insert(h, static_cast<std::size_t>(h * 3));
  }
  EXPECT_EQ(index.size(), 1000u);
  for (NodeHandle h = 1; h <= 1000; ++h) {
    ASSERT_EQ(index.lookup(h), static_cast<std::size_t>(h * 3)) << h;
  }
}

TEST(SlotIndex, ChurnAgreesWithReferenceModel) {
  // Backward-shift deletion is the part linear probing gets wrong most
  // easily: drive a long random insert/erase/set mix against a hash-map
  // reference and require identical lookups for present AND absent keys.
  // Sequential keys mimic CAN/Viceroy serials; the shifted copies mimic
  // Cycloid's structured (cubical << 8) | cyclic encodings, giving dense
  // probe clusters.
  SlotIndex index;
  std::unordered_map<NodeHandle, std::size_t> model;
  util::Rng rng(0x51071);

  const auto key_for = [](std::uint64_t draw) {
    const NodeHandle base = (draw % 512) + 1;
    return (draw % 3 == 0) ? (base << 8) | (draw % 7) : base;
  };

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t draw = rng();
    const NodeHandle key = key_for(draw);
    switch (draw % 4) {
      case 0:
        if (!model.contains(key)) {
          index.insert(key, static_cast<std::size_t>(op));
          model.emplace(key, static_cast<std::size_t>(op));
        }
        break;
      case 1:
        if (model.contains(key)) {
          index.erase(key);
          model.erase(key);
        }
        break;
      case 2:
        if (model.contains(key)) {
          index.set(key, static_cast<std::size_t>(op) + 1);
          model[key] = static_cast<std::size_t>(op) + 1;
        }
        break;
      default:
        break;
    }
    ASSERT_EQ(index.size(), model.size()) << "op " << op;
    // Probe this op's key plus a second independent one (often absent).
    const NodeHandle other = key_for(rng());
    for (const NodeHandle probe : {key, other}) {
      const auto it = model.find(probe);
      ASSERT_EQ(index.lookup(probe),
                it == model.end() ? kNoSlot : it->second)
          << "op " << op << " key " << probe;
    }
  }
}

TEST(SlotIndexDeathTest, ReservedAndDuplicateAndAbsentKeysTrap) {
  SlotIndex index;
  index.insert(5, 0);
  EXPECT_DEATH(index.insert(kNoNode, 1), "Precondition");
  EXPECT_DEATH(index.insert(5, 1), "Precondition");  // duplicate
  EXPECT_DEATH(index.erase(6), "Precondition");      // absent
  EXPECT_DEATH(index.set(6, 2), "Precondition");     // absent
}

// ---------------------------------------------------------------------
// Registry / arena slot lifecycle against real overlays.

/// Every slot in [0, node_count()) must be the exact inverse image of its
/// handle, at all times.
void expect_slots_consistent(const DhtNetwork& net) {
  for (std::size_t slot = 0; slot < net.node_count(); ++slot) {
    const NodeHandle handle = net.handle_at(slot);
    ASSERT_NE(handle, kNoNode) << "slot " << slot;
    ASSERT_EQ(net.slot_of(handle), slot) << "slot " << slot;
    ASSERT_TRUE(net.contains(handle)) << "slot " << slot;
  }
}

TEST(RegistrySlots, StableInversesThroughVanishFailRejoinChurn) {
  util::Rng rng(0xc4a05);
  auto net = chord::ChordNetwork::build_random(10, 80, rng);
  expect_slots_consistent(*net);

  for (int op = 0; op < 200; ++op) {
    switch (rng.below(5)) {
      case 0:
        net->join(rng());
        break;
      case 1:
        if (net->node_count() > 16) net->leave(net->random_node(rng));
        break;
      case 2:
        if (net->node_count() > 16) {
          net->fail_ungraceful(net->random_node(rng));  // single vanish
        }
        break;
      case 3:
        if (op % 29 == 0 && net->node_count() > 32) {
          net->fail_ungraceful(0.1, rng);  // mass ungraceful departure
        }
        break;
      default:
        net->stabilize_all();  // rejoin-ish repair; membership unchanged
        break;
    }
    ASSERT_NO_FATAL_FAILURE(expect_slots_consistent(*net)) << "op " << op;
  }
}

TEST(RegistrySlots, SwapRemoveMovesTailIntoVacatedSlot) {
  util::Rng rng(0x7a11);
  auto net = chord::ChordNetwork::build_random(10, 40, rng);
  const std::size_t n = net->node_count();
  ASSERT_GE(n, 3u);

  // Remove a mid-table node: the tail handle must take over its slot and
  // every other handle must keep the slot it had.
  const std::size_t victim_slot = n / 2;
  const NodeHandle victim = net->handle_at(victim_slot);
  const NodeHandle tail = net->handle_at(n - 1);
  std::vector<NodeHandle> before(n);
  for (std::size_t s = 0; s < n; ++s) before[s] = net->handle_at(s);

  net->fail_ungraceful(victim);
  ASSERT_EQ(net->node_count(), n - 1);
  EXPECT_EQ(net->slot_of(victim), DhtNetwork::kNoSlot);
  EXPECT_EQ(net->handle_at(victim_slot), tail);
  EXPECT_EQ(net->slot_of(tail), victim_slot);
  for (std::size_t s = 0; s < n - 1; ++s) {
    if (s == victim_slot) continue;
    EXPECT_EQ(net->handle_at(s), before[s]) << "slot " << s;
  }

  // Removing the tail itself must not disturb anyone else.
  const NodeHandle last = net->handle_at(net->node_count() - 1);
  net->leave(last);
  EXPECT_EQ(net->slot_of(last), DhtNetwork::kNoSlot);
  ASSERT_NO_FATAL_FAILURE(expect_slots_consistent(*net));
}

TEST(RegistrySlots, RejoinAppendsAtTheTailSlot) {
  util::Rng rng(0x2e301);
  auto net = chord::ChordNetwork::build_random(10, 30, rng);
  const NodeHandle victim = net->handle_at(net->node_count() / 3);

  net->fail_ungraceful(victim);
  EXPECT_FALSE(net->contains(victim));

  // A departed identifier rejoining gets the tail slot — departed slots
  // are never held for reuse (DESIGN.md §13).
  ASSERT_TRUE(net->insert(victim));  // handle == id for ring overlays
  net->stabilize_all();
  EXPECT_EQ(net->slot_of(victim), net->node_count() - 1);
  ASSERT_NO_FATAL_FAILURE(expect_slots_consistent(*net));
}

// ---------------------------------------------------------------------
// The one checked accessor that replaced the per-overlay node_state
// duplicates: it must keep trapping on departed handles.

TEST(ArenaAccessorDeathTest, NodeStateTrapsOnDepartedHandle) {
  auto net = ccc::CycloidNetwork::build_complete(3);
  util::Rng rng(0xdead);
  const NodeHandle victim = net->random_node(rng);
  net->leave(victim);
  EXPECT_DEATH(net->node_state(victim), "Precondition");
  // Unchecked twin (the public const overload): no trap, just nullptr.
  EXPECT_EQ(std::as_const(*net).node_of(victim), nullptr);
}

TEST(ArenaAccessorDeathTest, NodeAtTrapsPastTheLiveSlots) {
  util::Rng rng(0xbeef);
  auto net = chord::ChordNetwork::build_random(10, 12, rng);
  EXPECT_DEATH(std::as_const(*net).node_at(net->node_count()), "Precondition");
}

// ---------------------------------------------------------------------
// A sink's dense query-load plane is keyed by one network's slots: an
// unbound sink merging a bound one adopts that binding, and a sink never
// spans two networks.

TEST(SinkBinding, UnboundSinkAdoptsBindingOnMerge) {
  util::Rng rng(0x5151);
  auto net = chord::ChordNetwork::build_random(10, 40, rng);
  LookupMetrics source;
  for (int i = 0; i < 50; ++i) {
    net->route(net->random_node(rng), rng(), source);
  }
  ASSERT_TRUE(source.bound());

  LookupMetrics merged;
  ASSERT_FALSE(merged.bound());
  merged.merge(source);
  EXPECT_TRUE(merged.bound());
  EXPECT_EQ(merged.query_load_vector(*net), source.query_load_vector(*net));
  EXPECT_EQ(merged.lookups, source.lookups);
  EXPECT_EQ(merged.hops, source.hops);
}

TEST(SinkBindingDeathTest, MergingASinkBoundToAnotherNetworkTraps) {
  util::Rng rng(0x5152);
  auto first = chord::ChordNetwork::build_random(10, 20, rng);
  auto second = chord::ChordNetwork::build_random(10, 20, rng);
  LookupMetrics on_first;
  LookupMetrics on_second;
  first->route(first->random_node(rng), rng(), on_first);
  second->route(second->random_node(rng), rng(), on_second);
  EXPECT_DEATH(on_first.merge(on_second), "Precondition");
}

// A bound sink records the membership epoch: slots are only stable between
// membership changes, so every later use that would read or extend the
// plane across a change traps.

TEST(MembershipEpoch, EveryRegistryChangeBumpsIt) {
  util::Rng rng(0x5153);
  auto net = chord::ChordNetwork::build_random(10, 20, rng);
  const std::uint64_t built = net->membership_epoch();
  EXPECT_GE(built, 20u);
  net->stabilize_all();
  EXPECT_EQ(net->membership_epoch(), built);
  const NodeHandle joined = net->join(0x77);
  ASSERT_NE(joined, kNoNode);
  EXPECT_EQ(net->membership_epoch(), built + 1);
  net->leave(joined);
  EXPECT_EQ(net->membership_epoch(), built + 2);
}

TEST(SinkBindingDeathTest, RoutingThroughABoundSinkAfterAJoinTraps) {
  util::Rng rng(0x5154);
  auto net = chord::ChordNetwork::build_random(10, 20, rng);
  LookupMetrics sink;
  net->route(net->random_node(rng), rng(), sink);
  ASSERT_NE(net->join(0x78), kNoNode);
  EXPECT_DEATH(net->route(net->random_node(rng), rng(), sink), "Precondition");
}

TEST(SinkBindingDeathTest, ReadingOrMergingAStaleSinkTraps) {
  util::Rng rng(0x5155);
  auto net = chord::ChordNetwork::build_random(10, 20, rng);
  const NodeHandle from = net->random_node(rng);
  LookupMetrics sink;
  net->route(from, rng(), sink);
  net->leave(net->random_node(rng));
  EXPECT_DEATH(sink.query_load_of(from), "Precondition");
  EXPECT_DEATH(sink.query_load_vector(*net), "Precondition");
  LookupMetrics merged;
  EXPECT_DEATH(merged.merge(sink), "Precondition");
}

}  // namespace
}  // namespace cycloid::dht
