// DhtStore — a replicated key-value layer over any DhtNetwork.
//
// The paper positions Cycloid as a substrate for content-delivery overlays:
// keys are hashed, the lookup protocol locates the storing node, and the key
// is kept at its owner (paper Sec. 3.1, "Cycloid key storage mechanism is
// almost the same as that of Pastry"). DhtStore implements that layer
// generically: values live at the key's owner plus `replicas - 1` follower
// nodes, gets route from any source, and membership changes re-seat the
// affected entries. It works unchanged over Cycloid, Chord, Koorde, and
// Viceroy — the examples use it as the end-user API.
//
// Each put or get costs one route plus O(replicas): an entry keeps its key
// hash, and the ring order that replica placement walks is cached per
// membership epoch (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dht/network.hpp"

namespace cycloid::dht {

class DhtStore {
 public:
  /// Wrap an overlay. The store does not own the network; it must outlive
  /// the store. `replicas` >= 1 counts the owner itself.
  explicit DhtStore(DhtNetwork& net, int replicas = 1);

  /// Route a put from `source` (or a random node) and store the value at
  /// the key's owner and its replica set. Returns the lookup cost.
  LookupResult put(const std::string& key, std::string value,
                   NodeHandle source = kNoNode);

  /// Route a get; returns the value if any replica holding the key was
  /// reached. Cost is returned through `result` when non-null.
  std::optional<std::string> get(const std::string& key,
                                 NodeHandle source = kNoNode,
                                 LookupResult* result = nullptr);

  /// Remove a key everywhere it is replicated.
  bool erase(const std::string& key);

  /// Number of distinct keys stored.
  std::size_t key_count() const noexcept { return directory_.size(); }

  /// Keys (with replicas) currently placed on `node`.
  std::size_t keys_on(NodeHandle node) const;

  /// Per-node primary-copy counts (the Fig. 8 quantity, one per live node).
  std::vector<std::uint64_t> primary_load() const;

  /// Re-seat every entry whose owner or replica set changed — call after
  /// joins/leaves/failures, like the overlay's stabilization. Returns the
  /// number of entries that moved.
  std::size_t rebalance();

  /// Fraction of keys whose primary copy survives on the correct owner
  /// (1.0 after rebalance; lower right after failures).
  double placement_accuracy() const;

  /// Seed the RNG the store uses when `source` is unspecified.
  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

 private:
  struct Entry {
    std::string value;
    KeyHash hash = 0;                 // hash::hash_name(key), computed once
    std::vector<NodeHandle> holders;  // holders[0] is the primary owner
  };

  /// Fill `holders` with the owner of `hash` plus replicas-1 distinct
  /// follower nodes, resolved from the current membership: one owner_of
  /// plus O(replicas) over the cached ring.
  void place(KeyHash hash, std::vector<NodeHandle>& holders);

  /// Rebuild ring_ and ring_pos_ if the membership changed since they were
  /// taken (O(n log n) once per membership epoch, O(1) otherwise).
  void sync_ring();

  DhtNetwork& net_;
  int replicas_;
  std::map<std::string, Entry> directory_;
  util::Rng rng_;
  /// node_handles() as of membership epoch ring_epoch_, and each live
  /// node's index in it by slot: ring_[ring_pos_[slot_of(h)]] == h. Both
  /// start empty, which is current at epoch 0 (no node registered yet).
  std::vector<NodeHandle> ring_;
  std::vector<std::uint32_t> ring_pos_;
  std::uint64_t ring_epoch_ = 0;
};

}  // namespace cycloid::dht
