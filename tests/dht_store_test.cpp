// Tests for the replicated key-value layer over the DhtNetwork interface.
#include "dht/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/network.hpp"
#include "exp/overlays.hpp"
#include "hash/keys.hpp"
#include "util/rng.hpp"

namespace cycloid::dht {
namespace {

TEST(DhtStore, PutThenGetRoundTrips) {
  auto net = ccc::CycloidNetwork::build_complete(5);
  DhtStore store(*net);
  store.put("alpha", "1");
  store.put("beta", "2");
  EXPECT_EQ(store.get("alpha"), "1");
  EXPECT_EQ(store.get("beta"), "2");
  EXPECT_EQ(store.key_count(), 2u);
}

TEST(DhtStore, MissingKeyIsNullopt) {
  auto net = ccc::CycloidNetwork::build_complete(4);
  DhtStore store(*net);
  EXPECT_EQ(store.get("nope"), std::nullopt);
}

TEST(DhtStore, OverwriteReplacesValue) {
  auto net = ccc::CycloidNetwork::build_complete(4);
  DhtStore store(*net);
  store.put("k", "old");
  store.put("k", "new");
  EXPECT_EQ(store.get("k"), "new");
  EXPECT_EQ(store.key_count(), 1u);
}

TEST(DhtStore, EraseRemovesKey) {
  auto net = ccc::CycloidNetwork::build_complete(4);
  DhtStore store(*net);
  store.put("k", "v");
  EXPECT_TRUE(store.erase("k"));
  EXPECT_FALSE(store.erase("k"));
  EXPECT_EQ(store.get("k"), std::nullopt);
}

TEST(DhtStore, ValueLivesAtTheOwner) {
  auto net = ccc::CycloidNetwork::build_complete(5);
  DhtStore store(*net);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "key-" + std::to_string(i);
    store.put(key, "v");
    const NodeHandle owner = net->owner_of(hash::hash_name(key));
    EXPECT_GE(store.keys_on(owner), 1u);
  }
}

TEST(DhtStore, ReplicationPlacesCopiesOnDistinctNodes) {
  auto net = ccc::CycloidNetwork::build_complete(5);
  DhtStore store(*net, /*replicas=*/3);
  store.put("replicated", "v");
  std::size_t holders = 0;
  for (const NodeHandle h : net->node_handles()) {
    holders += store.keys_on(h);
  }
  EXPECT_EQ(holders, 3u);
}

TEST(DhtStore, PrimaryLoadSumsToKeyCount) {
  util::Rng rng(5);
  auto net = ccc::CycloidNetwork::build_random(6, 100, rng);
  DhtStore store(*net, 2);
  for (int i = 0; i < 200; ++i) {
    store.put("k" + std::to_string(i), "v");
  }
  std::uint64_t total = 0;
  for (const std::uint64_t l : store.primary_load()) total += l;
  EXPECT_EQ(total, 200u);
}

TEST(DhtStore, AccuracyDropsOnFailureAndRebalanceRestoresIt) {
  auto net = ccc::CycloidNetwork::build_complete(6);
  DhtStore store(*net);
  for (int i = 0; i < 200; ++i) store.put("k" + std::to_string(i), "v");
  EXPECT_DOUBLE_EQ(store.placement_accuracy(), 1.0);

  util::Rng rng(6);
  net->fail_simultaneously(0.4, rng);
  EXPECT_LT(store.placement_accuracy(), 1.0);

  const std::size_t moved = store.rebalance();
  EXPECT_GT(moved, 0u);
  EXPECT_DOUBLE_EQ(store.placement_accuracy(), 1.0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(store.get("k" + std::to_string(i)), "v");
  }
}

TEST(DhtStore, ReplicasMaskMostSingleHolderLosses) {
  // With ring-neighbour replication the node inheriting a departed owner's
  // key range usually holds a copy already. (Not always, for Cycloid: its
  // closeness metric wraps the cyclic index inside a local cycle, so a
  // departing primary node can hand the range to the cycle's first member,
  // which is not ring-adjacent.) Check the statistical claim, and that a
  // rebalance always restores full availability.
  auto net = ccc::CycloidNetwork::build_complete(6);
  DhtStore store(*net, /*replicas=*/3);
  const int keys = 60;
  for (int i = 0; i < keys; ++i) {
    store.put("key-" + std::to_string(i), "v");
  }
  int available = 0;
  for (int i = 0; i < keys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const NodeHandle owner = net->owner_of(hash::hash_name(key));
    net->leave(owner);
    net->stabilize_all();
    if (store.get(key) == "v") ++available;
    // Restore the departed node so each key is tested independently.
    const ccc::CccId id = ccc::CycloidNetwork::id_of(owner);
    ASSERT_TRUE(dynamic_cast<ccc::CycloidNetwork*>(net.get())->insert(id));
    net->stabilize_all();
  }
  EXPECT_GE(available, keys * 2 / 3);

  // After a real loss plus rebalance, everything is reachable again.
  net->leave(net->owner_of(hash::hash_name("key-0")));
  net->stabilize_all();
  store.rebalance();
  for (int i = 0; i < keys; ++i) {
    EXPECT_EQ(store.get("key-" + std::to_string(i)), "v");
  }
}

TEST(DhtStore, SingleCopyIsLostWithItsHolderUntilRebalance) {
  auto net = ccc::CycloidNetwork::build_complete(6);
  DhtStore store(*net, /*replicas=*/1);
  store.put("fragile", "v");
  const NodeHandle owner = net->owner_of(hash::hash_name("fragile"));
  net->leave(owner);
  net->stabilize_all();
  // The new owner doesn't hold the value...
  EXPECT_EQ(store.get("fragile"), std::nullopt);
  // ...until the application re-seats its entries.
  store.rebalance();
  EXPECT_EQ(store.get("fragile"), "v");
}

TEST(DhtStore, RebalanceIsIdempotent) {
  util::Rng rng(7);
  auto net = ccc::CycloidNetwork::build_random(6, 80, rng);
  DhtStore store(*net, 2);
  for (int i = 0; i < 100; ++i) store.put("k" + std::to_string(i), "v");
  EXPECT_EQ(store.rebalance(), 0u);  // nothing changed yet
  net->leave(net->random_node(rng));
  store.rebalance();
  EXPECT_EQ(store.rebalance(), 0u);
}

TEST(DhtStore, WorksOverEveryOverlay) {
  for (const exp::OverlayKind kind : exp::all_overlays()) {
    auto net = exp::make_sparse_overlay(kind, 7, 200, 11);
    DhtStore store(*net, 2);
    for (int i = 0; i < 50; ++i) {
      store.put("k" + std::to_string(i), "value-" + std::to_string(i));
    }
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(store.get("k" + std::to_string(i)),
                "value-" + std::to_string(i))
          << exp::overlay_label(kind);
    }
  }
}

TEST(DhtStore, GetReportsLookupCost) {
  auto net = ccc::CycloidNetwork::build_complete(6);
  DhtStore store(*net);
  store.put("k", "v");
  LookupResult result;
  ASSERT_TRUE(store.get("k", kNoNode, &result).has_value());
  EXPECT_GE(result.hops, 0);
  EXPECT_EQ(result.destination, net->owner_of(hash::hash_name("k")));
}

// ---------------------------------------------------------------------
// Differential test: the store's cached-ring placement against placement
// recomputed from scratch — node_handles(), a linear search for the owner,
// then alternating ring neighbours — over membership churn on every
// overlay.

constexpr int kReplicas = 3;

std::vector<NodeHandle> reference_holders(const DhtNetwork& net,
                                          const std::string& key) {
  const NodeHandle owner = net.owner_of(hash::hash_name(key));
  const std::vector<NodeHandle> ring = net.node_handles();
  const auto it = std::find(ring.begin(), ring.end(), owner);
  EXPECT_NE(it, ring.end());
  const std::size_t base = static_cast<std::size_t>(it - ring.begin());
  const std::size_t n = ring.size();
  const std::size_t want = std::min<std::size_t>(kReplicas, n);
  std::vector<NodeHandle> holders = {owner};
  for (std::size_t offset = 1; holders.size() < want; ++offset) {
    holders.push_back(ring[(base + offset) % n]);
    if (holders.size() < want) holders.push_back(ring[(base + n - offset) % n]);
  }
  std::sort(holders.begin(), holders.end());
  return holders;
}

/// The live nodes holding a copy of a single-key store's key, read through
/// keys_on (a node appears once per copy it holds).
std::vector<NodeHandle> holders_via_keys_on(const DhtStore& store,
                                            const DhtNetwork& net) {
  std::vector<NodeHandle> holders;
  for (const NodeHandle h : net.node_handles()) {
    for (std::size_t c = store.keys_on(h); c > 0; --c) holders.push_back(h);
  }
  std::sort(holders.begin(), holders.end());
  return holders;
}

class StoreDifferentialTest
    : public ::testing::TestWithParam<exp::OverlayKind> {
 protected:
  void SetUp() override {
    net_ = exp::make_sparse_overlay(GetParam(), 7, 64, 0x5e7);
    shared_ = std::make_unique<DhtStore>(*net_, kReplicas);
    for (int i = 0; i < 32; ++i) {
      keys_.push_back("key-" + std::to_string(i));
      single_.push_back(std::make_unique<DhtStore>(*net_, kReplicas));
      single_.back()->put(keys_.back(), "v");
      shared_->put(keys_.back(), "v");
    }
  }

  /// rebalance every store, then compare each key's holders with the
  /// reference and check the shared store's primary-load total.
  void rebalance_and_check(const std::string& step) {
    SCOPED_TRACE(step);
    shared_->rebalance();
    std::vector<std::size_t> expected_on(net_->node_count(), 0);
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      single_[i]->rebalance();
      const std::vector<NodeHandle> expected =
          reference_holders(*net_, keys_[i]);
      EXPECT_EQ(holders_via_keys_on(*single_[i], *net_), expected) << keys_[i];
      for (const NodeHandle h : expected) ++expected_on[net_->slot_of(h)];
    }
    for (const NodeHandle h : net_->node_handles()) {
      EXPECT_EQ(shared_->keys_on(h), expected_on[net_->slot_of(h)]);
    }
    std::uint64_t primaries = 0;
    for (const std::uint64_t load : shared_->primary_load()) primaries += load;
    EXPECT_EQ(primaries, shared_->key_count());
    EXPECT_EQ(shared_->key_count(), keys_.size());
  }

  /// Track one more key, named so that `node` owns it.
  void add_key_owned_by(NodeHandle node) {
    for (int i = 0;; ++i) {
      const std::string key = "owned-" + std::to_string(i);
      if (net_->owner_of(hash::hash_name(key)) != node) continue;
      keys_.push_back(key);
      single_.push_back(std::make_unique<DhtStore>(*net_, kReplicas));
      single_.back()->put(key, "v");
      shared_->put(key, "v");
      return;
    }
  }

  NodeHandle join_fresh() {
    for (;;) {
      const std::uint64_t seed = next_seed_++;
      const NodeHandle joined = net_->join(seed);
      if (joined != kNoNode) {
        last_join_seed_ = seed;
        return joined;
      }
    }
  }

  std::unique_ptr<DhtNetwork> net_;
  std::unique_ptr<DhtStore> shared_;
  std::vector<std::unique_ptr<DhtStore>> single_;
  std::vector<std::string> keys_;
  std::uint64_t next_seed_ = 0x10000;
  std::uint64_t last_join_seed_ = 0;
};

TEST_P(StoreDifferentialTest, PlacementMatchesReferenceThroughChurn) {
  util::Rng rng(0x5e8);
  rebalance_and_check("built");

  for (int i = 0; i < 3; ++i) join_fresh();
  rebalance_and_check("joins");

  for (int i = 0; i < 3; ++i) net_->leave(net_->random_node(rng));
  rebalance_and_check("leaves");

  net_->fail_ungraceful(0.1, rng);
  net_->stabilize_all();
  rebalance_and_check("ungraceful failures + stabilize_all");

  // Leave and reinsert the same identifier from a slot short of the
  // registry's tail: slots move, node_count does not, and the membership
  // epoch still invalidates the ring cache. The rejoiner owns a tracked
  // key, so a stale slot -> ring index would misplace that key.
  const NodeHandle rejoiner = join_fresh();
  const std::uint64_t seed = last_join_seed_;
  join_fresh();
  add_key_owned_by(rejoiner);
  rebalance_and_check("rejoiner joined");
  const std::size_t count = net_->node_count();
  const std::size_t slot = net_->slot_of(rejoiner);
  net_->leave(rejoiner);
  const NodeHandle back = net_->join(seed);
  ASSERT_NE(back, kNoNode);
  ASSERT_EQ(net_->node_count(), count);
  EXPECT_NE(net_->slot_of(back), slot);
  rebalance_and_check("leave then reinsert");
}

TEST_P(StoreDifferentialTest, PutAfterJoinUsesTheNewRingWithoutRebalance) {
  // The store caches its ring on this put; the join then moves the epoch.
  DhtStore store(*net_, kReplicas);
  store.put("warm", "v");
  const NodeHandle joined = join_fresh();

  // A key the joined node must hold: a stale ring cannot place it there.
  std::string key;
  for (int i = 0;; ++i) {
    key = "probe-" + std::to_string(i);
    const std::vector<NodeHandle> expected = reference_holders(*net_, key);
    if (std::find(expected.begin(), expected.end(), joined) != expected.end()) {
      break;
    }
  }
  ASSERT_TRUE(store.erase("warm"));
  store.put(key, "v");
  EXPECT_EQ(holders_via_keys_on(store, *net_), reference_holders(*net_, key));
}

INSTANTIATE_TEST_SUITE_P(AllOverlays, StoreDifferentialTest,
                         ::testing::ValuesIn(exp::extended_overlays()),
                         [](const auto& info) {
                           std::string label = exp::overlay_label(info.param);
                           for (char& c : label) {
                             if (c == '-') c = '_';
                           }
                           return label;
                         });

}  // namespace
}  // namespace cycloid::dht
